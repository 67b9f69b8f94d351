//! A dependency-free JSON value with a writer *and* a parser.
//!
//! The build environment has no crates.io access, so nothing in the
//! workspace uses `serde_json`. This one writer (two-space indent, object
//! keys in insertion order) renders run reports, checkpoints, the
//! experiments' archival dumps and the bench reports; the parser exists
//! so reports round-trip ([`crate::RunReport::from_json`]) and so CI can
//! validate emitted telemetry without external tooling.

use core::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder starting empty.
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not [`Json::Obj`].
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field of an object (`None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact count: an integer in 0..=2^53 (a JSON `f64`
    /// holds each one exactly) that fits `T`; `None` for a fraction, a
    /// negative or a larger number, which a cast would round or saturate.
    #[must_use]
    pub fn as_count<T: TryFrom<u64>>(&self) -> Option<T> {
        self.as_num()
            .filter(|n| (0.0..=2f64.powi(53)).contains(n) && n.fract() == 0.0)
            .and_then(|n| T::try_from(n as u64).ok())
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (two-space indent, keys in
    /// insertion order, trailing newline).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }

    /// Renders the value as compact JSON on one line (no whitespace
    /// between tokens, keys in insertion order, no trailing newline): the
    /// form of a JSON-lines record. A string's line breaks are escaped,
    /// so the text never contains a newline.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        self.write_line(&mut s);
        s
    }

    /// The deepest array/object nesting [`Json::parse`] accepts. Every
    /// document the workspace writes nests a few levels; the bound keeps
    /// a hostile input from recursing the parser off the end of its stack.
    pub const MAX_NESTING: usize = 128;

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] on malformed input, including trailing
    /// garbage after the top-level value and nesting deeper than
    /// [`Json::MAX_NESTING`].
    pub fn parse(text: &str) -> Result<Json, ParseJsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the top-level value"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integers print without a trailing ".0".
                    if n.fract() == 0.0 && n.abs() < 9e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_line(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_line(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `s` as a JSON string literal. Unescaped runs are copied whole:
/// every byte that needs an escape is ASCII, and no byte of a multi-byte
/// UTF-8 character is, so a run always ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Error returned by [`Json::parse`] (and report deserialization).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseJsonError {
    pub(crate) fn schema(message: impl Into<String>) -> ParseJsonError {
        ParseJsonError {
            offset: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseJsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseJsonError {
        ParseJsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseJsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == Json::MAX_NESTING {
                    return Err(
                        self.err(format!("nesting deeper than {} levels", Json::MAX_NESTING))
                    );
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseJsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => s.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Four hex digits of a `\u` escape (the `\u` itself already consumed).
    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\uXXXX` escape, pairing UTF-16 surrogates: a high
    /// surrogate must be immediately followed by a `\uXXXX` low surrogate
    /// (together encoding one supplementary-plane character), and a
    /// surrogate in any other position is a hard parse error — replacing
    /// it with U+FFFD would silently corrupt round-tripped report strings.
    fn unicode_escape(&mut self) -> Result<char, ParseJsonError> {
        let code = self.hex4()?;
        match code {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.err(format!(
                        "lone surrogate \\u{code:04X} (a high surrogate must be \
                         followed by a \\u low-surrogate escape)"
                    )));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err(format!(
                        "lone surrogate \\u{code:04X} (followed by \\u{low:04X}, \
                         which is not a low surrogate)"
                    )));
                }
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                Ok(char::from_u32(scalar).expect("paired surrogates decode to a valid scalar"))
            }
            0xDC00..=0xDFFF => Err(self.err(format!(
                "lone surrogate \\u{code:04X} (a low surrogate without a preceding \
                 high surrogate)"
            ))),
            _ => Ok(char::from_u32(code).expect("non-surrogate BMP code points are chars")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        // Past `f64` a number parses to an infinity, which no document holds.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let j = Json::object()
            .field("name", "enumerate")
            .field("seconds", 0.25f64)
            .field("calls", 3u64)
            .field("empty", Json::Arr(Vec::new()))
            .field(
                "children",
                Json::Arr(vec![Json::object().field("name", "inner")]),
            )
            .field("note", "quotes \" and \\ and\nnewlines\tok");
        let text = j.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
        let line = j.to_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), j);
        assert_eq!(
            Json::object()
                .field("a", vec![Json::from(1u64), Json::from("b")])
                .to_line(),
            r#"{"a":[1,"b"]}"#
        );
    }

    #[test]
    fn integers_print_bare_and_non_finite_numbers_print_null() {
        assert_eq!(Json::from(42usize).to_pretty(), "42\n");
        assert_eq!(Json::from(2.25f64).to_pretty(), "2.25\n");
        assert_eq!(Json::from(f64::NAN).to_pretty(), "null\n");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(100_000);
        assert!(Json::parse(&arrays).is_err());
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
        let depth = Json::MAX_NESTING;
        let at_limit = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        let error = Json::parse(&over).unwrap_err();
        assert_eq!(error.offset, depth);
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e-2, true, false, null], "b": {}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(j.get("b"), Some(&Json::Obj(Vec::new())));
        assert_eq!(
            Json::parse(r#""A\n""#).unwrap(),
            Json::Str("A\n".to_owned())
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"abc", "{]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn numbers_past_f64_are_parse_errors() {
        for bad in ["1e999", "-1e999", "[1e400]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn counts_are_exact_integers_up_to_two_to_the_53() {
        let count = |text: &str| Json::parse(text).unwrap().as_count::<u64>();
        assert_eq!(count("0"), Some(0));
        assert_eq!(count("9007199254740992"), Some(1 << 53));
        for bad in ["1.9", "-1", "9007199254740994", "\"1\"", "null"] {
            assert_eq!(count(bad), None, "{bad}");
        }
        assert_eq!(Json::from(300u64).as_count::<u8>(), None);
    }

    #[test]
    fn surrogate_pairs_decode_to_supplementary_characters() {
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".to_owned())
        );
        assert_eq!(
            Json::parse(r#""a𐀀b""#).unwrap(),
            Json::Str("a\u{10000}b".to_owned())
        );
        assert_eq!(
            Json::parse(r#""􏿿""#).unwrap(),
            Json::Str("\u{10FFFF}".to_owned())
        );
        // BMP escapes still decode directly.
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".to_owned()));
    }

    #[test]
    fn lone_surrogates_are_named_parse_errors() {
        for bad in [
            r#""\uD800""#,       // high surrogate at end of string
            r#""\uD83Dx""#,      // high surrogate followed by a plain char
            r#""\uD83D\n""#,     // high surrogate followed by a non-\u escape
            r#""\uD83D\uD83D""#, // high surrogate followed by another high
            r#""\uDE00""#,       // low surrogate on its own
            r#""\uDC00\uD800""#, // pair in the wrong order
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(
                e.message.contains("lone surrogate"),
                "{bad}: expected a lone-surrogate error, got: {e}"
            );
        }
        // A truncated low half still reports the truncation.
        let e = Json::parse(r#""\uD83D\uDE"#).unwrap_err();
        assert!(e.message.contains("truncated"), "{e}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Writer → parser round trip over arbitrary strings, including
        /// supplementary-plane characters (which the writer emits as raw
        /// UTF-8) and control characters (which it `\u`-escapes).
        #[test]
        fn arbitrary_strings_round_trip(
            codes in proptest::collection::vec(0u32..0x11_0000, 0usize..64)
        ) {
            let s: String = codes
                .into_iter()
                .filter_map(char::from_u32) // skips the surrogate gap
                .collect();
            let doc = Json::object()
                .field("s", s.clone())
                .field("arr", Json::Arr(vec![Json::Str(s.clone())]));
            let parsed = Json::parse(&doc.to_pretty());
            proptest::prop_assert_eq!(parsed.as_ref(), Ok(&doc));

            // The same string forced through `\u` escapes (UTF-16 code
            // units, surrogate pairs for non-BMP) must decode identically.
            let mut escaped = String::from('"');
            for unit in s.encode_utf16() {
                let _ = write!(escaped, "\\u{unit:04x}");
            }
            escaped.push('"');
            proptest::prop_assert_eq!(Json::parse(&escaped), Ok(Json::Str(s)));
        }

        /// The run-copying escaper writes what the per-character one it
        /// replaced wrote.
        #[test]
        fn escaping_matches_the_per_character_reference(
            codes in proptest::collection::vec(
                proptest::prop_oneof![0u32..0x80, 0u32..0x11_0000],
                0usize..64,
            )
        ) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let mut reference = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => reference.push_str("\\\""),
                    '\\' => reference.push_str("\\\\"),
                    '\n' => reference.push_str("\\n"),
                    '\r' => reference.push_str("\\r"),
                    '\t' => reference.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(reference, "\\u{:04x}", c as u32);
                    }
                    c => reference.push(c),
                }
            }
            reference.push('"');
            let mut written = String::new();
            write_escaped(&mut written, &s);
            proptest::prop_assert_eq!(written, reference);
        }
    }

    #[test]
    fn accessors() {
        let j = Json::object().field("n", 2u64).field("s", "x");
        assert_eq!(j.get("n").unwrap().as_num(), Some(2.0));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.as_num(), None);
        assert_eq!(j.as_arr(), None);
    }
}
