//! The workspace's JSON codec: reports, checkpoints, telemetry trace
//! lines, benchmark rows, and the daemon's job specs, status documents,
//! spool records and error bodies all go through this module. It lives in
//! the zero-dependency bottom crate so every crate above can share it;
//! `maxpower::serve::json` re-exports it.
//!
//! It has three parts:
//!
//! * a recursive-descent [`parse`]r over the full JSON grammar (objects,
//!   arrays, strings with escapes, numbers, literals) into a [`Json`] tree,
//!   with a depth limit instead of a clever iterative parser (every
//!   document is human-sized). Integer literals an `f64` cannot hold
//!   exactly — checkpoint fingerprints, seeds and checksums are full-range
//!   `u64` — keep their exact value as [`Json::Int`];
//! * a streaming [`JsonWriter`] with no intermediate tree, pretty-printed
//!   with two-space indents or compact. Finite floats are written with
//!   Rust's shortest round-trip (`{:?}`) formatting, non-finite ones as
//!   `null`;
//! * the [`Encode`]/[`Decode`] traits the typed encoders and decoders
//!   implement, next to the types they serialize (reports, checkpoints,
//!   run health). Structs are objects with their fields in declaration
//!   order, fieldless enum variants are their names as strings, and
//!   variants with fields are externally tagged (`{"Variant": {...}}`).
//!   Decoders ignore unknown members, so older readers accept newer
//!   documents.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]; beyond this the input is
/// rejected rather than risking a stack overflow on adversarial bodies.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the nearest `f64`.
    Num(f64),
    /// A non-negative integer literal that no `f64` holds exactly (above
    /// 2⁵³ and not a multiple of the float spacing there), kept exact.
    /// Every other number is a [`Json::Num`].
    Int(u64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is irrelevant to every reader, so a sorted map
    /// keeps lookups simple and `Debug` output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for absent keys, `null` members
    /// and non-objects alike (the spec layer treats all three as
    /// "not provided").
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key).filter(|v| !matches!(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number ([`Json::Int`] rounds to
    /// the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly: any `u64`, up to `u64::MAX`. Rejects fractions and
    /// negatives.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            // An integral f64 below 2⁶⁴ converts exactly; plain integer
            // literals the f64 would have rounded arrive as `Int` instead.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 18_446_744_073_709_551_616.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The object's keys, for strict unknown-field rejection.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // Surrogate pairs are rare in specs; map lone
                            // surrogates to the replacement character
                            // rather than rejecting the request.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("invalid escape `\\{}`", char::from(other))),
                    }
                }
                Some(_) => {
                    // Copy the whole unescaped run in one slice. It ends at
                    // the next `"` or `\`, both ASCII, so on a char
                    // boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        // A plain integer literal the nearest f64 would change keeps its
        // exact value (compared through u128: `as u64` saturates 2⁶⁴ back
        // to u64::MAX).
        if let Ok(exact) = text.parse::<u64>() {
            if n as u128 != u128::from(exact) {
                return Ok(Json::Int(exact));
            }
        }
        Ok(Json::Num(n))
    }
}

/// A streaming JSON writer: values go straight into the output string,
/// with no intermediate tree.
///
/// Pretty output matches the conventional two-space layout: one member or
/// element per line, `"key": value`, and `[]`/`{}` for empty containers.
/// Compact output has no whitespace at all.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    depth: usize,
    /// No member/element written yet in the innermost open container.
    first: bool,
}

impl JsonWriter {
    /// A writer producing indented, multi-line output.
    #[must_use]
    pub fn pretty() -> Self {
        JsonWriter::new(true)
    }

    /// A writer producing single-line output.
    #[must_use]
    pub fn compact() -> Self {
        JsonWriter::new(false)
    }

    fn new(pretty: bool) -> Self {
        JsonWriter {
            out: String::with_capacity(256),
            pretty,
            depth: 0,
            first: true,
        }
    }

    /// The document written so far.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    /// Comma (unless first), then the line break and indent of a new
    /// member or element.
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    /// Opens an object; write members with [`field`](Self::field).
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array; write elements with [`element`](Self::element).
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Starts an object member: separator, indent, key and colon. The
    /// caller writes the value next.
    pub fn key(&mut self, name: &str) {
        self.separate();
        self.str(name);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Writes one object member.
    pub fn field<T: Encode + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.encode(self);
    }

    /// Writes one array element.
    pub fn element<T: Encode + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.encode(self);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes an already-serialized JSON document verbatim (e.g. a stored
    /// report embedded in a status response).
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Writes a float: shortest round-trip form when finite, `null`
    /// otherwise (JSON has no infinities or NaN).
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.null();
        }
    }

    /// Writes an unsigned integer, exactly.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a string literal, escaping quotes, backslashes and control
    /// characters.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                '\u{8}' => self.out.push_str("\\b"),
                '\u{c}' => self.out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// A value that writes itself as JSON.
pub trait Encode {
    /// Writes `self` at the writer's current position.
    fn encode(&self, w: &mut JsonWriter);
}

/// A value that reads itself from a parsed [`Json`] tree.
pub trait Decode: Sized {
    /// Reads a value.
    ///
    /// # Errors
    ///
    /// A description of the first member with the wrong shape.
    fn decode(value: &Json) -> Result<Self, String>;
}

/// Serializes `value` as indented JSON.
pub fn to_string_pretty<T: Encode + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::pretty();
    value.encode(&mut w);
    w.finish()
}

/// Serializes `value` as single-line JSON.
pub fn to_string<T: Encode + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::compact();
    value.encode(&mut w);
    w.finish()
}

/// Parses `text` and decodes it as a `T`.
///
/// # Errors
///
/// The syntax error, or the first member with the wrong shape.
pub fn from_str<T: Decode>(text: &str) -> Result<T, String> {
    T::decode(&parse(text)?)
}

/// The members of an object being decoded, with typed lookups.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a>(&'a BTreeMap<String, Json>);

impl<'a> Fields<'a> {
    /// Views `value` as an object.
    ///
    /// # Errors
    ///
    /// When `value` is not an object.
    pub fn of(value: &'a Json) -> Result<Self, String> {
        match value {
            Json::Obj(map) => Ok(Fields(map)),
            other => Err(format!("expected an object, found {}", kind(other))),
        }
    }

    /// A member that must be present.
    ///
    /// # Errors
    ///
    /// When the member is missing or has the wrong shape.
    pub fn req<T: Decode>(&self, key: &str) -> Result<T, String> {
        match self.0.get(key) {
            Some(value) => T::decode(value).map_err(|e| format!("`{key}`: {e}")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// A member that reads as `default` when absent (`Option` members use
    /// `None`, so `null` and absent read alike).
    ///
    /// # Errors
    ///
    /// When the member is present with the wrong shape.
    pub fn or<T: Decode>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            Some(value) => T::decode(value).map_err(|e| format!("`{key}`: {e}")),
            None => Ok(default),
        }
    }
}

fn kind(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Num(_) | Json::Int(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

fn mismatch(want: &str, found: &Json) -> String {
    format!("expected {want}, found {}", kind(found))
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut JsonWriter) {
        (**self).encode(w);
    }
}

impl Encode for str {
    fn encode(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Decode for String {
    fn decode(value: &Json) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| mismatch("a string", value))
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl Decode for bool {
    fn decode(value: &Json) -> Result<Self, String> {
        match value {
            Json::Bool(b) => Ok(*b),
            other => Err(mismatch("a bool", other)),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

/// `null` — how the writer spells a non-finite float — reads back as NaN.
impl Decode for f64 {
    fn decode(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or_else(|| mismatch("a number", other)),
        }
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(value: &Json) -> Result<Self, String> {
        value
            .as_u64()
            .ok_or_else(|| mismatch("a non-negative integer", value))
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(value: &Json) -> Result<Self, String> {
        u32::try_from(u64::decode(value)?).map_err(|e| e.to_string())
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(value: &Json) -> Result<Self, String> {
        usize::try_from(u64::decode(value)?).map_err(|e| e.to_string())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.encode(w),
            None => w.null(),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            w.element(item);
        }
        w.end_array();
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut JsonWriter) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(value: &Json) -> Result<Self, String> {
        match value {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::decode(item).map_err(|e| format!("[{i}]: {e}")))
                .collect(),
            other => Err(mismatch("an array", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_nested_document() {
        let doc = parse(
            r#"{"circuit":"C432","epsilon":0.05,"tags":["a","b"],
                "nested":{"deep":true,"none":null},"neg":-2.5e-1}"#,
        )
        .expect("valid document parses");
        assert_eq!(doc.get("circuit").and_then(Json::as_str), Some("C432"));
        assert_eq!(doc.get("epsilon").and_then(Json::as_f64), Some(0.05));
        assert_eq!(
            doc.get("nested").and_then(|n| n.get("deep")),
            Some(&Json::Bool(true))
        );
        // null members read as absent, like missing keys.
        assert!(doc.get("nested").expect("nested").get("none").is_none());
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-0.25));
    }

    #[test]
    fn resolves_string_escapes() {
        let doc = parse(r#"{"s":"a\"b\\c\ndA"}"#).expect("escapes parse");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        let doc = parse(r#"{"a":7,"b":7.5,"c":-7}"#).expect("parses");
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("b").and_then(Json::as_u64), None);
        assert_eq!(doc.get("c").and_then(Json::as_u64), None);
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        for n in [u64::MAX, (1 << 53) + 1, 0xcbf2_9ce4_8422_2325, 1 << 60] {
            let doc = parse(&format!("{{\"n\":{n}}}")).expect("parses");
            assert_eq!(doc.get("n").and_then(Json::as_u64), Some(n), "{n}");
            assert_eq!(doc.get("n").and_then(Json::as_f64), Some(n as f64));
            assert_eq!(from_str::<u64>(&to_string(&n)), Ok(n));
        }
        // Only literals a float would change get the exact variant.
        assert_eq!(parse("18446744073709551615"), Ok(Json::Int(u64::MAX)));
        assert_eq!(
            parse("1152921504606846976"),
            Ok(Json::Num((1u64 << 60) as f64))
        );
        assert_eq!(
            parse("9007199254740992"),
            Ok(Json::Num(9_007_199_254_740_992.0))
        );
        // Beyond u64 or negative: the nearest float, not an integer.
        assert_eq!(parse("18446744073709551616").map(|j| j.as_u64()), Ok(None));
        assert_eq!(parse("-9007199254740993").map(|j| j.as_u64()), Ok(None));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a":1} extra"#,
            "truthy",
            "1e999",
            r#""unterminated"#,
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn roundtrips_a_report_sized_document() {
        // The daemon embeds `EstimateReport::to_json` output verbatim in
        // status responses; make sure the parser handles that shape.
        let doc = parse(
            r#"{
  "schema_version": 9,
  "subject": "C432",
  "estimate": 12.5,
  "history": [{"k": 1, "estimate_mw": 12.0}],
  "job": {"job_id": "j000001", "queue_wait_ms": 0.25}
}"#,
        )
        .expect("report-shaped document parses");
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(9));
        assert_eq!(
            doc.get("job")
                .and_then(|j| j.get("job_id"))
                .and_then(Json::as_str),
            Some("j000001")
        );
    }

    #[test]
    fn writer_layouts() {
        struct Doc;
        impl Encode for Doc {
            fn encode(&self, w: &mut JsonWriter) {
                w.begin_object();
                w.field("s", "a\"b\\\n\u{1}");
                w.field("xs", &vec![1.0, f64::INFINITY, 1e-7]);
                w.field("none", &Vec::<u64>::new());
                w.key("obj");
                w.begin_object();
                w.end_object();
                w.field("opt", &None::<u64>);
                w.key("raw");
                w.raw("{\"k\":1}");
                w.end_object();
            }
        }
        assert_eq!(
            to_string(&Doc),
            r#"{"s":"a\"b\\\n\u0001","xs":[1.0,null,1e-7],"none":[],"obj":{},"opt":null,"raw":{"k":1}}"#
        );
        assert_eq!(
            to_string_pretty(&Doc),
            "{\n  \"s\": \"a\\\"b\\\\\\n\\u0001\",\n  \"xs\": [\n    1.0,\n    null,\n    \
             1e-7\n  ],\n  \"none\": [],\n  \"obj\": {},\n  \"opt\": null,\n  \
             \"raw\": {\"k\":1}\n}"
        );
        // Strings survive the writer → parser round trip.
        let s = "quote \" backslash \\ tab \t bell \u{7} é";
        assert_eq!(from_str::<String>(&to_string(s)).as_deref(), Ok(s));
    }

    #[test]
    fn multi_mebibyte_strings_parse_in_linear_time() {
        // A job spec can inline a megabyte-sized netlist; the string scan
        // must not revisit the rest of the input for every character.
        let s = "INPUT(G1) é\t\"x\"\\\n".repeat(200_000);
        assert!(s.len() > 3 << 20);
        let started = std::time::Instant::now();
        let back = from_str::<String>(&to_string(&s));
        let elapsed = started.elapsed();
        assert_eq!(back.as_deref(), Ok(s.as_str()));
        assert!(elapsed.as_secs_f64() < 2.0, "{elapsed:?}");
    }

    #[test]
    fn decoders_name_the_offending_member() {
        let doc = parse(r#"{"a":[1,"x"],"b":null}"#).expect("parses");
        let fields = Fields::of(&doc).expect("object");
        let err = fields
            .req::<Vec<u64>>("a")
            .expect_err("element 1 is a string");
        assert!(err.contains("`a`") && err.contains("[1]"), "{err}");
        assert!(fields.req::<u64>("missing").is_err());
        assert_eq!(fields.or("missing", 5u64), Ok(5));
        // A present null is an absent option but a NaN float.
        assert_eq!(fields.or::<Option<u64>>("b", Some(1)), Ok(None));
        assert!(fields.req::<f64>("b").expect("null float").is_nan());
        assert!(Fields::of(&Json::Arr(Vec::new())).is_err());
    }
}
