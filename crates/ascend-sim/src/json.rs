//! The one JSON layer of the workspace: a value type, a writer, a parser.
//!
//! Every document the simulator and its tools emit (`KernelReport`
//! entries, `BENCH_scan.json`, Perfetto traces, `simlint` / `mcheck`
//! output) is built as a [`Json`] tree and rendered by its `Display`
//! impl, which does all string escaping. Every document they read
//! (trace files, bench reports) goes through [`parse`], which returns
//! `Err` on malformed input and never panics.
//!
//! Objects keep insertion order and numbers keep their text, so the
//! caller fixes how a number prints (`{:.6}`, `{:.3}`, exact integers)
//! and a parsed `u64` such as a GM offset reads back exactly.

use std::fmt::{self, Write as _};

/// Deepest nesting [`parse`] accepts. Deeper input is rejected instead
/// of recursed into, so a hostile document cannot overflow the stack.
const MAX_DEPTH: u32 = 256;

/// One JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, held as its JSON text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `v` printed with `places` decimals. Non-finite values, which JSON
    /// cannot hold, print as `0.0`.
    pub fn fixed(v: f64, places: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.places$}"))
        } else {
            Json::Num("0.0".to_string())
        }
    }

    /// The value under `key`, if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if `self` is a non-negative integer
    /// that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value under `key`, or an error naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field {key}"))
    }

    /// The number under `key` as an `f64`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    /// The number under `key` as an exact `u64`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an unsigned integer", Json::as_u64)
    }

    /// The string under `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    /// The array under `key`.
    pub fn array_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "an array", Json::as_array)
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        conv: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        conv(self.field(key)?).ok_or_else(|| format!("field {key} is not {what}"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

/// Shortest round-trip text (`1.8`, `800`); non-finite prints as `0.0`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v.to_string())
        } else {
            Json::Num("0.0".to_string())
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// Compact rendering: no whitespace, fields in insertion order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => f.write_str(n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a string literal: quotes, backslashes and control
/// characters are escaped, so a hostile name can never break a document.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Parses one complete JSON document (surrounding whitespace allowed).
pub fn parse(doc: &str) -> Result<Json, String> {
    let mut p = Parser { src: doc, pos: 0 };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.pos != doc.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Recursive-descent parser over a `&str`. `pos` only ever stops on an
/// ASCII byte or the end, so it is always a char boundary.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, String> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 256 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            fields.push((key, self.value(depth + 1)?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence, just after its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate only makes a character together
                    // with the low surrogate escape that must follow it.
                    if !self.src[self.pos..].starts_with("\\u") {
                        return Err(self.err("lone surrogate escape"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("lone surrogate escape"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate escape"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| self.err(&e.to_string()))?;
        self.pos += 4;
        Ok(code)
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        let n = self.digits();
        if n == 0 || (n > 1 && self.src.as_bytes()[int] == b'0') {
            return Err(self.err("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad exponent"));
            }
        }
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"schema":"bench-scan/v1","kernels":[{"name":"MCScan","cycles":123,
                "time_us":4.5,"engines":{"CUBE":{"busy_cycles":7}},"ok":true,
                "barrier_wait_cycles":[1,2,3],"esc":"a\"b\\cé\n"}]}"#,
        ] {
            assert!(parse(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "\"unterminated",
            "\"bad\\escape\"",
            "{\"raw\":\"a\nb\"}",
            "01x",
            "1.e5",
            "nulll",
        ] {
            assert!(parse(doc).is_err(), "should reject: {doc:?}");
        }
    }

    #[test]
    fn truncated_documents_are_errors() {
        let doc = r#"{"a":[1,{"b":"xé"},true,null],"c":-2.5e3}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                assert!(parse(&doc[..cut]).is_err(), "prefix {:?}", &doc[..cut]);
            }
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(10_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let closed = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
        assert!(parse(&closed).is_err());
        // 256 levels is the limit, inclusive.
        let ok = format!("{}{}", "[".repeat(256), "]".repeat(256));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(257), "]".repeat(257));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn bad_escapes_and_lone_surrogates_are_errors() {
        for doc in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12G4""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800A""#,
            r#""\udc00""#,
            "\"\\",
        ] {
            assert!(parse(doc).is_err(), "should reject: {doc}");
        }
        assert_eq!(
            parse(r#""😀\ud83d\ude00 é\/\b\f""#).unwrap(),
            Json::Str("\u{1F600}\u{1F600} é/\u{8}\u{c}".to_string())
        );
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        for doc in ["{} {}", "[1]]", "1 2", "\"a\"x", "true false"] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("trailing garbage"), "{doc}: {err}");
        }
    }

    #[test]
    fn u64_max_round_trips_exactly() {
        let doc = format!("{{\"token\":{},\"offset\":8589934656}}", u64::MAX);
        let v = parse(&doc).unwrap();
        assert_eq!(v.u64_field("token").unwrap(), u64::MAX);
        assert_eq!(v.u64_field("offset").unwrap(), (1 << 33) + 64);
        assert_eq!(v.to_string(), doc);
        assert_eq!(Json::from(u64::MAX).as_u64(), Some(u64::MAX));
        // Not an exact unsigned integer.
        for n in ["-1", "1.0", "1e3", "18446744073709551616"] {
            assert_eq!(parse(n).unwrap().as_u64(), None, "{n}");
        }
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = Json::obj([
            ("a", Json::fixed(0.1234567, 6)),
            ("b", Json::fixed(2.0, 3)),
            ("c", Json::fixed(f64::NAN, 6)),
            ("d", Json::fixed(f64::INFINITY, 1)),
            ("e", 1.8.into()),
            ("f", 800.0.into()),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"a":0.123457,"b":2.000,"c":0.0,"d":0.0,"e":1.8,"f":800}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn hostile_names_are_escaped() {
        let hostile = "a\"b\\c\nd\re\tf\u{1}g";
        let doc = Json::obj([("name", hostile.into())]).to_string();
        assert_eq!(doc, "{\"name\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"}");
        // No raw control characters survive, and the name reads back.
        assert!(!doc.chars().any(|c| (c as u32) < 0x20));
        assert_eq!(parse(&doc).unwrap().str_field("name").unwrap(), hostile);
    }

    #[test]
    fn plain_names_pass_through_unchanged() {
        assert_eq!(Json::from("MTE2").to_string(), "\"MTE2\"");
        assert_eq!(
            Json::from("Phase I (tile scans) é").to_string(),
            "\"Phase I (tile scans) é\""
        );
    }

    #[test]
    fn objects_keep_insertion_order_and_typed_fields_report_errors() {
        let v = parse(r#"{"z":1,"a":"s","m":[true,false,null]}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":"s","m":[true,false,null]}"#);
        assert_eq!(v.f64_field("z").unwrap(), 1.0);
        assert_eq!(v.array_field("m").unwrap().len(), 3);
        assert!(v.f64_field("a").unwrap_err().contains("not a number"));
        assert!(v
            .str_field("nope")
            .unwrap_err()
            .contains("missing field nope"));
        assert_eq!(Json::Null.get("z"), None);
    }
}
