//! Minimal dependency-free JSON: escape-correct emission and a small
//! reader.
//!
//! The suite emits machine-readable output in two places — the
//! per-rank trace journals of [`crate::trace`] and the `benchmark/`
//! harness's reports — and `demsort-trace` and the harness read the
//! journals back. Both sides go through this module so a string that
//! was emitted always parses back to the same value (escaping is
//! centralized and round-trip tested), without pulling a serde stack
//! into a workspace that is otherwise dependency-free.
//!
//! Numbers keep their integer-ness: a `u64` nanosecond timestamp is
//! emitted as a decimal integer and parses back to [`Json::Uint`]
//! exactly — it never transits through an `f64` and loses precision.

use crate::error::{Error, Result};

/// Maximum nesting depth the parser accepts (arrays + objects). Deep
/// enough for any demsort output, shallow enough that malicious input
/// cannot overflow the parse stack.
const MAX_DEPTH: usize = 128;

/// A parsed or to-be-emitted JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats are emitted as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer literal (no sign, fraction, or exponent).
    Uint(u64),
    /// Negative integer literal.
    Int(i64),
    /// Any other number (fraction, exponent, or out of integer range).
    Num(f64),
    /// String (stored unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered key/value list (insertion order preserved;
    /// lookup is linear — demsort objects are small).
    Obj(Vec<(String, Json)>),
}

/// Append `s` to `out` as a JSON string literal, quotes included, with
/// every character that JSON requires escaped (`"`, `\`, and control
/// characters).
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// Convenience: build a [`Json::Str`].
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialize into `out` (compact: no added whitespace).
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => {
                out.push_str(itoa_buf(&mut [0u8; 20], *u));
            }
            Json::Int(i) => {
                out.push_str(&i.to_string());
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // Rust's `Display` for f64 is the shortest decimal
                    // expansion that round-trips, and it never uses
                    // exponent notation — both valid JSON and stable
                    // under emit → parse → emit.
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (rejects trailing garbage).
    ///
    /// # Errors
    /// [`Error::Validation`] naming the byte offset of the first
    /// syntax problem.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write_into(&mut s);
        f.write_str(&s)
    }
}

/// Format a `u64` into a stack buffer (avoids a `String` per number on
/// the journal hot path).
fn itoa_buf(buf: &mut [u8; 20], mut x: u64) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
}

/// Parse newline-delimited JSON: one value per non-empty line.
///
/// # Errors
/// [`Error::Validation`] naming the first malformed line (1-based).
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line)
            .map_err(|e| Error::validation(format!("JSONL line {}: {e}", i + 1)))?;
        out.push(v);
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::validation(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b':') {
                        return Err(self.err("expected ':' after object key"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}' in object")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        let neg = self.bytes.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digits"));
        }
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral {
            if neg {
                // "-0" stays a float so it re-emits as "-0", not "0".
                if let Ok(i) = text.parse::<i64>() {
                    if i != 0 {
                        return Ok(Json::Int(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                // surrogate pair: a second \uXXXX must follow
                                if !self.eat("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Read exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let slice =
            self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Uint(0)),
            ("18446744073709551615", Json::Uint(u64::MAX)),
            ("-42", Json::Int(-42)),
            ("1.5", Json::Num(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).expect(text), v);
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn exponents_parse_as_floats() {
        assert_eq!(Json::parse("1e3").expect("1e3"), Json::Num(1000.0));
        assert_eq!(Json::parse("-2.5E-1").expect("exp"), Json::Num(-0.25));
    }

    #[test]
    fn escapes_roundtrip() {
        let nasty = "quote\" slash\\ newline\n tab\t nul\u{0} high\u{1F600} bmp\u{00e9}";
        let v = Json::Str(nasty.into());
        let text = v.to_string();
        assert_eq!(Json::parse(&text).expect("parse"), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates_parse() {
        assert_eq!(Json::parse("\"\\u00e9\"").expect("bmp"), Json::Str("é".into()));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").expect("pair"), Json::Str("\u{1F600}".into()));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone surrogate");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Uint(1), Json::Null, Json::Str("x".into())])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Bool(false))])),
        ]);
        let text = v.to_string();
        assert_eq!(text, "{\"a\":[1,null,\"x\"],\"b\":{\"c\":false}}");
        assert_eq!(Json::parse(&text).expect("parse"), v);
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse("{\"n\": 7, \"s\": \"x\", \"f\": 0.5, \"a\": [1], \"t\": true}")
            .expect("parse");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(0.5));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("t").and_then(Json::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panics() {
        for text in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "[1 2]",
            "nul",
            "tru",
            "01x",
            "1.",
            "1e",
            "-",
            "\"\\q\"",
            "\"\\u12\"",
            "{\"a\":1,}",
            "[]extra",
            "\"raw\u{1}ctl\"",
        ] {
            assert!(
                matches!(Json::parse(text), Err(Error::Validation(_))),
                "{text:?} should fail cleanly"
            );
        }
    }

    #[test]
    fn depth_limit_rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(16).to_string() + &"]".repeat(16);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn jsonl_parses_line_per_value_and_names_bad_lines() {
        let text = "{\"a\":1}\n\n{\"b\":2}\n";
        let vs = parse_jsonl(text).expect("jsonl");
        assert_eq!(vs.len(), 2);
        let err = parse_jsonl("{\"a\":1}\nnot json\n").expect_err("bad line");
        assert!(matches!(err, Error::Validation(ref m) if m.contains("line 2")), "{err}");
    }

    /// Random `Json` trees, leaves included: every scalar shape, nasty
    /// strings (quotes, backslashes, control chars, non-ASCII), nested
    /// arrays and objects up to a bounded depth.
    struct ArbJson {
        depth: usize,
    }

    fn arb_string(rng: &mut proptest::test_runner::TestRng) -> String {
        const ALPHABET: &[char] =
            &['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '😀'];
        let len = rng.below(9) as usize;
        (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
    }

    fn arb_value(rng: &mut proptest::test_runner::TestRng, depth: usize) -> Json {
        let branches = if depth == 0 { 6 } else { 8 };
        match rng.below(branches) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Uint(rng.next_u64()),
            3 => Json::Int(-((rng.next_u64() >> 1) as i64) - 1),
            4 => {
                // Finite floats across magnitudes, negatives and -0.0
                // included.
                let mag = [0.0, -0.0, 0.5, 1.0, 1e-6, 1e12, f64::MAX, f64::MIN_POSITIVE];
                let base = mag[rng.below(mag.len() as u64) as usize];
                if rng.below(2) == 0 {
                    Json::Num(base)
                } else {
                    Json::Num(base + rng.unit_f64())
                }
            }
            5 => Json::Str(arb_string(rng)),
            6 => {
                let n = rng.below(5) as usize;
                Json::Arr((0..n).map(|_| arb_value(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.below(5) as usize;
                Json::Obj((0..n).map(|_| (arb_string(rng), arb_value(rng, depth - 1))).collect())
            }
        }
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn new_value(&self, rng: &mut proptest::test_runner::TestRng) -> Json {
            arb_value(rng, self.depth)
        }
    }

    fn arb_json() -> ArbJson {
        ArbJson { depth: 3 }
    }

    proptest! {
        /// Emit → parse → emit is the identity on the emitted text, for
        /// any value tree: what this module writes, it reads back.
        #[test]
        fn emitted_json_reparses_to_the_same_text(v in arb_json()) {
            let text = v.to_string();
            let parsed = Json::parse(&text).expect("own output must parse");
            prop_assert_eq!(parsed.to_string(), text);
        }
    }
}
