//! A tiny JSON writer and reader shared by the bench harness and the
//! telemetry snapshots.
//!
//! The workspace builds hermetically (no `serde`), so every JSON document
//! it emits — bench results, `BENCH_*.json` trajectories, live telemetry
//! snapshots served over the wire — is assembled by hand. The writer
//! helpers keep the escaping and number formatting rules in one place so
//! the documents cannot drift apart: strings are escaped per RFC 8259
//! (quotes, backslashes, control characters), floats print with three
//! decimals, and non-finite floats become `null` (JSON has no NaN).
//!
//! [`Json::parse`] reads RFC 8259 documents back. It reads replies off
//! the wire (`GET_STATS`), so it takes hostile input: nesting is bounded
//! (a 256 KiB run of `[` is an error, not a stack overflow), numbers follow
//! the RFC's grammar exactly, and raw control characters or unknown
//! escapes inside strings are rejected. A `\u` escape must name a
//! character on its own: the writers here escape only control
//! characters, so a surrogate pair is rejected rather than decoded.
//! Numbers keep their source text, so a `u64` counter or an `i64` gauge
//! reads back exactly rather than through `f64`.

/// Quotes and escapes `s` as a JSON string literal (including the
/// surrounding double quotes).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats `v` as a JSON number with three decimals, or `null` when the
/// value is not finite (JSON cannot represent NaN or infinities).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Numbers keep their source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a document of nothing
/// but `[` overflows the reading thread's stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error, or
    /// of the first array or object nested deeper than 64 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return p.err("trailing bytes");
        }
        Ok(value)
    }

    /// The first member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number written as an integer in `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A number written as an integer in `i64` range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A string's contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's elements.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.at))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            self.err("unknown literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    /// Members after the opening `{`.
    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if self.peek() != Some(b':') {
                return self.err("expected ':'");
            }
            self.at += 1;
            members.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    /// Elements after the opening `[`.
    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Skips a run of ASCII digits; `false` when there was none.
    fn digits(&mut self) -> bool {
        let start = self.at;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > start
    }

    /// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !self.digits() {
                return self.err("expected a digit after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !self.digits() {
                return self.err("expected an exponent digit");
            }
        }
        let text = self.s[start..self.at].iter().map(|&b| char::from(b));
        Ok(Json::Num(text.collect()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.err("expected a string");
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(c) = self.peek() else {
                return self.err("unterminated string");
            };
            match c {
                b'"' => {
                    self.at += 1;
                    break;
                }
                b'\\' => {
                    let Some(&escape) = self.s.get(self.at + 1) else {
                        return self.err("unterminated escape");
                    };
                    self.at += 2;
                    let unescaped = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return self.err("unknown escape"),
                    };
                    out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1f => return self.err("raw control character in a string"),
                _ => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
        String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"))
    }

    /// The character named by the four hex digits after `\u`; a
    /// surrogate is not a character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let Some(c) = self
            .s
            .get(self.at..self.at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
            .and_then(char::from_u32)
        else {
            return self.err("bad \\u escape");
        };
        self.at += 4;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\u0009here\"");
        assert_eq!(json_string(""), "\"\"");
    }

    #[test]
    fn floats_are_fixed_precision_or_null() {
        assert_eq!(json_f64(1.5), "1.500");
        assert_eq!(json_f64(0.0), "0.000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn reader_handles_nesting_literals_and_errors() {
        let doc =
            Json::parse(" {\"a\":[1,-2.5e3,true,null],\"b\":\"x\\\"A\",\"c\":{}}\r\n").unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"A"));
        let items = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1], Json::Num("-2.5e3".into()));
        assert_eq!(items[1].as_i64(), None);
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Null);
        assert_eq!(doc.get("c"), Some(&Json::Obj(Vec::new())));
        assert_eq!(doc.get("missing"), None);
        for bad in [
            "{\"a\":}",
            "[1] x",
            "",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\u{c}1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn integers_read_back_exactly_at_the_u64_and_i64_limits() {
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        assert_eq!(max.as_i64(), None);
        let min = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(min.as_i64(), Some(i64::MIN));
        assert_eq!(min.as_u64(), None);
        // 2^53 + 1: a trip through `f64` would round it to 2^53.
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_i64(),
            Some((1 << 53) + 1)
        );
    }

    #[test]
    fn a_max_payload_of_open_brackets_is_an_error_not_a_stack_overflow() {
        // One MAX_PAYLOAD (256 KiB) of `[`, read on a spawned thread with
        // its default stack, as a server-side reader would.
        let reader = std::thread::spawn(|| Json::parse(&"[".repeat(262_144)));
        let err = reader
            .join()
            .expect("the reader thread survives")
            .unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let at_limit = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(65), "]".repeat(65));
        assert!(Json::parse(&past).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(65), "}".repeat(65));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for good in [
            "0", "-0", "7", "-12", "0.5", "1e9", "1E+2", "-3.25e-4", "10",
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(good.into())), "{good:?}");
        }
        for bad in [
            "1-2", "-", "01", "-01", "1.", ".5", "1e", "1e+", "+1", "1.e3", "0x10", "--1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn escapes_decode_per_rfc_8259_and_unknown_ones_are_rejected() {
        let s = Json::parse(r#""\"\\\/\b\f\n\r\t\u0041é😀""#).unwrap();
        assert_eq!(s.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé😀"));
        // Every string `json_string` writes reads back as itself.
        let nasty = "q\"b\\s\u{0}\u{1f}\u{7f}é";
        assert_eq!(
            Json::parse(&json_string(nasty)).unwrap().as_str(),
            Some(nasty)
        );
        for bad in [r#""\x""#, r#""\u12""#, r#""\u+041""#, r#""\ud83d\ude00""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn raw_control_characters_inside_strings_are_rejected() {
        for c in ['\u{0}', '\t', '\n', '\u{1f}'] {
            assert!(
                Json::parse(&format!("\"a{c}b\"")).is_err(),
                "{c:?} accepted"
            );
        }
        assert!(
            Json::parse("\"a\u{7f}b\"").is_ok(),
            "DEL is not a control in JSON"
        );
    }
}
