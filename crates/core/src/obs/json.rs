//! Minimal hand-rolled JSON — just enough for JSONL run artifacts.
//!
//! The workspace is hermetic (no registry dependencies), so both the
//! writer and the reader live in-tree. The subset is deliberate: objects,
//! arrays, strings, bools, null, and numbers. Numbers are serialized with
//! Rust's shortest-round-trip `{:?}` formatting for `f64`, which means a
//! value written here and parsed back compares bit-identical — the
//! property `robonet stats` relies on to reproduce in-process summaries
//! exactly.
//!
//! There are three entry points over one parser: [`parse`] (strict
//! JSON, for manifests), [`parse_relaxed`] (comments and trailing
//! commas, for scenario files) and the crate-internal `scan_fields`,
//! the trace-line scanner behind `obs::sink::LineCursor`. They share
//! one object loop, one array loop and one set of token readers, so
//! `scan_fields` accepts exactly what `parse` accepts and fails with
//! the same error at the same byte. `scan_fields` builds no tree: it
//! hands each field of a line to its caller as a `Raw` value borrowed
//! from the line, reads a plain-digit integer in the same digit loop
//! that checks it, and allocates only for an escape, an array or an
//! object. The differential properties in `crates/core/tests/prop_obs.rs`
//! hold the trace decoder to `parse` on mutated lines, on every proper
//! prefix of a line and on lines with reordered, repeated, unknown and
//! whitespace-padded keys.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Object keys are kept in a `BTreeMap`, so re-serializing a value is
/// deterministic (sorted keys) even if the input was not.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` in shortest-round-trip form.
///
/// Non-finite values have no JSON representation; they serialize as
/// `null` (and a reader treats `null` metrics as absent).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// An incremental writer for one flat JSON object (one JSONL line).
///
/// ```
/// use robonet_core::obs::json::ObjectWriter;
///
/// let mut w = ObjectWriter::new();
/// w.field_str("ev", "failure");
/// w.field_f64("t", 1.5);
/// w.field_u64("sensor", 7);
/// assert_eq!(w.finish(), r#"{"ev":"failure","t":1.5,"sensor":7}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Starts a new object.
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.buf, value);
        self
    }

    /// Adds an `f64` field (shortest round-trip form).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        write_f64(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialized JSON.
    pub fn field_raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the serialized line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Converts a byte offset into 1-based (line, column) coordinates.
///
/// Columns count Unicode scalar values, not bytes, so error positions
/// point at what an editor shows. Offsets past the end of the input
/// report the position just after the last character.
pub fn line_col(input: &str, at: usize) -> (u32, u32) {
    let (mut line, mut col) = (1u32, 1u32);
    for (i, c) in input.char_indices() {
        if i >= at {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// A parsed value annotated with the byte offset where it started.
///
/// Produced by [`parse_relaxed`]; the offset converts to line/column
/// via [`line_col`], which is how the scenario layer attaches positions
/// to semantic errors (unknown key, bad type, …) long after parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedValue {
    /// Byte offset of the value's first character.
    pub at: usize,
    /// The value itself.
    pub node: SpannedNode,
}

/// The shape of a [`SpannedValue`].
///
/// Unlike [`JsonValue`], objects keep their fields in source order as
/// `(key offset, key, value)` triples — duplicate keys survive parsing
/// so the semantic layer can report them at the right position.
#[derive(Debug, Clone, PartialEq)]
pub enum SpannedNode {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<SpannedValue>),
    /// An object: `(key offset, key, value)` in source order.
    Object(Vec<(usize, String, SpannedValue)>),
}

impl SpannedNode {
    /// Human-readable name of the node's type, for "expected X, found
    /// Y" messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            SpannedNode::Null => "null",
            SpannedNode::Bool(_) => "a boolean",
            SpannedNode::Number(_) => "a number",
            SpannedNode::String(_) => "a string",
            SpannedNode::Array(_) => "an array",
            SpannedNode::Object(_) => "an object",
        }
    }
}

/// Parses one complete JSON value from `input` (trailing whitespace
/// allowed, trailing garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    Parser::new(input, false).complete(Parser::value)
}

/// Parses one complete value in the relaxed dialect scenario files use:
/// strict JSON plus `//` line comments and trailing commas in objects
/// and arrays. Every node carries its byte offset for error reporting.
pub fn parse_relaxed(input: &str) -> Result<SpannedValue, ParseError> {
    Parser::new(input, true).complete(Parser::spanned_value)
}

/// The value of one field as [`scan_fields`] hands it over. Every
/// variant borrows from the input, so a value is `Copy` and a table of
/// them costs nothing to drop. A number written as plain digits that
/// fit a `u64` arrives as that value, read by the scan itself; any
/// other number arrives as its checked text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Raw<'a> {
    /// No value: the key did not occur.
    Absent,
    /// A string without escapes: its contents.
    Str(&'a str),
    /// A string holding an escape: the whole checked literal, quotes
    /// included, decoded when read.
    Escaped(&'a str),
    /// A number written as plain digits, within `u64`.
    Int(u64),
    /// Any other number, as written.
    Num(&'a str),
    /// `true`.
    True,
    /// Any other value: `false`, `null`, an array or an object.
    Other,
}

impl<'a> Raw<'a> {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        match *self {
            Raw::Str(s) => Some(Cow::Borrowed(s)),
            Raw::Escaped(literal) => Parser::new(literal, false).string().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number. Both arms round to
    /// nearest, ties to even, so a digit string converts to the same
    /// bits either way.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Raw::Int(v) => Some(*v as f64),
            Raw::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    /// Plain digits are exact; any other form converts as
    /// [`JsonValue::as_u64`] does.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Raw::Int(v) => Some(*v),
            Raw::Num(_) => JsonValue::Number(self.as_f64()?).as_u64(),
            _ => None,
        }
    }
}

/// Parses one complete JSON value, as strictly as [`parse`] and with
/// the same errors, and hands each field of a top-level object to
/// `field` as `(key, value)`, in source order, duplicates included.
/// Any value other than an object has no fields.
///
/// This is the trace-line entry point: one pass, and no allocation
/// unless the line holds an escape, an array or an object.
pub(crate) fn scan_fields<'a>(
    input: &'a str,
    mut field: impl FnMut(&str, Raw<'a>),
) -> Result<(), ParseError> {
    Parser::new(input, false).complete(|p| {
        if p.peek() != Some(b'{') {
            return p.value().map(drop);
        }
        p.object_with(|p, _, key| {
            let value = match p.peek() {
                Some(b'"') => {
                    let start = p.pos;
                    match p.string()? {
                        Cow::Borrowed(s) => Raw::Str(s),
                        Cow::Owned(_) => Raw::Escaped(&p.src[start..p.pos]),
                    }
                }
                Some(b't') => p.literal("true").map(|()| Raw::True)?,
                Some(c) if c == b'-' || c.is_ascii_digit() => match p.number()? {
                    (_, Some(v)) => Raw::Int(v),
                    (text, None) => Raw::Num(text),
                },
                _ => p.value().map(|_| Raw::Other)?,
            };
            field(&key, value);
            Ok(())
        })
    })
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    relaxed: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, relaxed: bool) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            relaxed,
        }
    }

    /// Parses one value with `value`, allowing only whitespace around it.
    fn complete<T>(
        mut self,
        value: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.skip_ws();
        let v = value(&mut self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err(if self.relaxed {
                "trailing characters after value"
            } else {
                "trailing characters after JSON value"
            }));
        }
        Ok(v)
    }

    // Errors are the cold path and stay out of line. The token readers
    // below (`peek`, `skip_ws`, `expect`, the plain-string prefix of
    // `string`, `number`) are forced inline: the trace-line scan runs
    // them a few times per field, and as calls they cost it about a
    // tenth of its time.
    #[cold]
    #[inline(never)]
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        if !matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r' | b'/')) {
            return;
        }
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            // `//` line comments exist only in the relaxed dialect.
            if self.relaxed
                && self.peek() == Some(b'/')
                && self.bytes.get(self.pos + 1) == Some(&b'/')
            {
                while !matches!(self.peek(), None | Some(b'\n')) {
                    self.pos += 1;
                }
                continue;
            }
            return;
        }
    }

    #[inline(always)]
    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(byte))
        }
    }

    #[cold]
    #[inline(never)]
    fn expected(&self, byte: u8) -> ParseError {
        self.err(&format!("expected '{}'", byte as char))
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn spanned_value(&mut self) -> Result<SpannedValue, ParseError> {
        let at = self.pos;
        let node = match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object_with(|p, key_at, key| {
                    fields.push((key_at, key.into_owned(), p.spanned_value()?));
                    Ok(())
                })?;
                SpannedNode::Object(fields)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array_with(|p| {
                    items.push(p.spanned_value()?);
                    Ok(())
                })?;
                SpannedNode::Array(items)
            }
            Some(b'"') => SpannedNode::String(self.string()?.into_owned()),
            Some(b't') => self.literal("true").map(|()| SpannedNode::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| SpannedNode::Bool(false))?,
            Some(b'n') => self.literal("null").map(|()| SpannedNode::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => SpannedNode::Number(self.float()?),
            _ => return Err(self.err("expected a value")),
        };
        Ok(SpannedValue { at, node })
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                // A later duplicate key replaces the earlier value.
                self.object_with(|p, _, key| {
                    map.insert(key.into_owned(), p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array_with(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.float().map(JsonValue::Number),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The one object loop. For each field it reads the key, then hands
    /// `(key offset, key)` to `field`, which must consume the value.
    /// The strict dialect rejects a trailing comma; the relaxed one
    /// allows it.
    fn object_with(
        &mut self,
        mut field: impl FnMut(&mut Self, usize, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') && (first || self.relaxed) {
                self.pos += 1;
                return Ok(());
            }
            if self.relaxed && self.peek() != Some(b'"') {
                return Err(self.err("expected a key string or '}' in object"));
            }
            first = false;
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key_at, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// The one array loop, the counterpart of [`Parser::object_with`].
    fn array_with(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[')?;
        let mut first = true;
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') && (first || self.relaxed) {
                self.pos += 1;
                return Ok(());
            }
            first = false;
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Reads a string literal in one pass: each run of plain characters
    /// up to the next `"` or `\` is sliced out whole. Both delimiters
    /// are ASCII, so every run ends on a character boundary. The result
    /// borrows from the input unless the literal holds an escape.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let end = string_run_end(self.bytes, start);
        match end {
            Some(end) if self.bytes[end] == b'"' => {
                self.pos = end + 1;
                Ok(Cow::Borrowed(&self.src[start..end]))
            }
            _ => self.escaped_string(),
        }
    }

    /// The rest of [`Parser::string`] once the first run of plain
    /// characters ends in an escape or at the end of the input.
    #[inline(never)]
    fn escaped_string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let run_len = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(run_len) = run_len else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run_len;
            let run = &self.src[start..self.pos];
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
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
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    // Surrogate pairs are not produced by our
                    // writer; reject rather than mis-decode.
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape sequence")),
            }
            self.pos += 1;
        }
    }

    /// Scans a number and returns its text, and its value when the
    /// text is plain digits that fit a `u64` (read by the same digit
    /// loop, all 64 bits kept). The shape is what `str::parse::<f64>`
    /// accepts of such text: a digit in the mantissa, and one in the
    /// exponent if there is one.
    #[inline(always)]
    fn number(&mut self) -> Result<(&'a str, Option<u64>), ParseError> {
        let b = self.bytes;
        let start = self.pos;
        let mut i = start;
        let negative = b.get(i) == Some(&b'-');
        if negative {
            i += 1;
        }
        let int_start = i;
        let mut int = Some(0u64);
        while let Some(&c @ b'0'..=b'9') = b.get(i) {
            int = int
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(c - b'0')));
            i += 1;
        }
        let int_end = i;
        let mut mantissa_digits = int_end - int_start;
        if b.get(i) == Some(&b'.') {
            let fraction = i + 1;
            i = digits_end(b, fraction);
            mantissa_digits += i - fraction;
        }
        let mut exponent_ok = true;
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let exponent = i;
            i = digits_end(b, exponent);
            exponent_ok = i > exponent;
        }
        self.pos = i;
        if mantissa_digits == 0 || !exponent_ok {
            return Err(self.err("invalid number"));
        }
        let plain = !negative && i == int_end;
        Ok((&self.src[start..i], int.filter(|_| plain)))
    }

    fn float(&mut self) -> Result<f64, ParseError> {
        self.number()?
            .0
            .parse()
            .map_err(|_| self.err("invalid number"))
    }
}

// The two scans below read eight bytes at a time ("SWAR"): a trace
// line is mostly string runs and the fractional digits of `f64`s, and
// a byte loop pays a compare and a branch for each of their bytes.

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The 8 bytes of `bytes` from `i` as one little-endian word, if there
/// are 8.
#[inline(always)]
fn word_at(bytes: &[u8], i: usize) -> Option<u64> {
    let chunk = bytes.get(i..i.checked_add(8)?)?;
    Some(u64::from_le_bytes(chunk.try_into().ok()?))
}

/// The high bit of each zero byte of `w`. A borrow can set a bit above
/// a zero byte but never below one, so the lowest set bit is exact.
#[inline(always)]
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(ONES) & !w & HIGH_BITS
}

/// The index of the first `"` or `\` in `bytes` at or after `i`.
#[inline(always)]
fn string_run_end(bytes: &[u8], mut i: usize) -> Option<usize> {
    while let Some(w) = word_at(bytes, i) {
        let hits =
            zero_bytes(w ^ (ONES * u64::from(b'"'))) | zero_bytes(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return Some(i + hits.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|len| i + len)
}

/// The end of the run of ASCII digits in `bytes` that starts at `i`.
#[inline(always)]
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(w) = word_at(bytes, i) {
        // With each byte's high bit cleared, adding 0x50 sets it again
        // exactly for bytes from '0' up, and adding 0x46 exactly for
        // bytes past '9'; no sum carries into the next byte. A byte
        // with its high bit set is not ASCII, so not a digit either.
        let low = w & !HIGH_BITS;
        let not_digit =
            (w | !low.wrapping_add(ONES * 0x50) | low.wrapping_add(ONES * 0x46)) & HIGH_BITS;
        if not_digit != 0 {
            return i + not_digit.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writer_builds_flat_lines() {
        let mut w = ObjectWriter::new();
        w.field_str("ev", "replaced");
        w.field_f64("t", 123.456);
        w.field_u64("robot", 200);
        w.field_bool("departed", true);
        let line = w.finish();
        assert_eq!(
            line,
            r#"{"ev":"replaced","t":123.456,"robot":200,"departed":true}"#
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("replaced"));
        assert_eq!(v.get("t").unwrap().as_f64(), Some(123.456));
        assert_eq!(v.get("robot").unwrap().as_u64(), Some(200));
        assert_eq!(v.get("departed"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        // Awkward values: shortest-repr printing + from_str must be the
        // identity on bits.
        for v in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            88.24744186046512,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} -> {s} -> {back:?}");
        }
    }

    #[test]
    fn non_finite_serializes_as_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π";
        let mut s = String::new();
        write_str(&mut s, nasty);
        assert_eq!(parse(&s).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":false}}"#).unwrap();
        let a = match v.get("a").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "12x",
            "{\"a\":1}tail",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail to parse");
        }
    }

    #[test]
    fn relaxed_parser_accepts_comments_and_trailing_commas() {
        let src = "{\n  // a comment\n  \"a\": [1, 2,], // trailing\n  \"b\": true,\n}";
        let v = parse_relaxed(src).unwrap();
        let fields = match &v.node {
            SpannedNode::Object(f) => f,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].1, "a");
        match &fields[0].2.node {
            SpannedNode::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(fields[1].2.node, SpannedNode::Bool(true));
        // Strict mode must still reject both extensions.
        assert!(parse("[1,]").is_err());
        assert!(parse("// c\n1").is_err());
    }

    #[test]
    fn spanned_offsets_convert_to_line_col() {
        let src = "{\n  \"key\": 42\n}";
        let v = parse_relaxed(src).unwrap();
        let fields = match &v.node {
            SpannedNode::Object(f) => f,
            other => panic!("expected object, got {other:?}"),
        };
        let (key_at, _, val) = &fields[0];
        assert_eq!(line_col(src, *key_at), (2, 3));
        assert_eq!(line_col(src, val.at), (2, 10));
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, src.len() + 10), (3, 2));
    }

    #[test]
    fn relaxed_parser_keeps_duplicate_keys_in_order() {
        let v = parse_relaxed(r#"{"x": 1, "x": 2}"#).unwrap();
        let fields = match v.node {
            SpannedNode::Object(f) => f,
            other => panic!("expected object, got {other:?}"),
        };
        assert_eq!(fields.len(), 2, "duplicates survive for semantic checks");
        assert_eq!(fields[0].1, "x");
        assert_eq!(fields[1].1, "x");
    }

    #[test]
    fn relaxed_parser_rejects_malformed_input() {
        for bad in [
            "{,}",
            "[1 2]",
            "{\"a\": }",
            "{\"a\": 1,, }",
            "/* block */ 1",
        ] {
            assert!(parse_relaxed(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn u64_extraction_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        // `u64::MAX as f64` rounds up to 2^64, which no u64 holds.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568),
            "the largest f64 below 2^64 still converts"
        );
    }

    #[test]
    fn number_shape_check_matches_the_float_parser() {
        // Every string of up to five characters over the number
        // alphabet: `parse` accepts exactly what `str::parse::<f64>`
        // accepts, given that a JSON number starts with '-' or a digit.
        let alphabet = ['-', '+', '.', 'e', '1'];
        let mut texts = vec![String::new()];
        for _ in 0..5 {
            let longer: Vec<String> = texts
                .iter()
                .flat_map(|t| alphabet.iter().map(move |c| format!("{t}{c}")))
                .collect();
            for text in &longer {
                let starts_ok = text.starts_with(['-', '1']);
                let want = starts_ok && text.parse::<f64>().is_ok();
                assert_eq!(parse(text).is_ok(), want, "{text:?}");
                let line = format!("{{\"n\":{text}}}");
                assert_eq!(scan_fields(&line, |_, _| {}).is_ok(), want, "{line:?}");
            }
            texts = longer;
        }
    }

    /// The fields [`scan_fields`] hands over, in order.
    fn fields(input: &str) -> Result<Vec<(String, Raw<'_>)>, ParseError> {
        let mut out = Vec::new();
        scan_fields(input, |key, value| out.push((key.to_string(), value)))?;
        Ok(out)
    }

    #[test]
    fn field_numbers_convert_on_use() {
        let numbers = fields(r#"{"a":18446744073709551615,"b":5e2,"c":-0,"d":2.5}"#).unwrap();
        let value = |i: usize| &numbers[i].1;
        assert_eq!(value(0), &Raw::Int(u64::MAX), "plain digits are exact");
        assert_eq!(value(0).as_u64(), Some(u64::MAX));
        assert_eq!(value(1).as_u64(), Some(500));
        assert_eq!(value(2).as_u64(), Some(0));
        assert_eq!(value(3).as_u64(), None);
        assert_eq!(value(3).as_f64(), Some(2.5));
        assert_eq!(value(3).as_str(), None);
        let beyond = fields(r#"{"a":18446744073709551616}"#).unwrap();
        assert_eq!(beyond[0].1, Raw::Num("18446744073709551616"));
        assert_eq!(beyond[0].1.as_u64(), None, "2^64 is out of range");
        // A digit string read as a u64 converts to the bits its text does.
        for v in [
            0,
            (1 << 53) - 1,
            (1 << 53) + 1,
            (1 << 54) + 3,
            u64::MAX - 1024,
            u64::MAX,
        ] {
            let text = v.to_string();
            assert_eq!(
                Raw::Int(v).as_f64().map(f64::to_bits),
                Some(text.parse::<f64>().unwrap().to_bits()),
                "{text}"
            );
        }
    }

    #[test]
    fn fields_keep_source_order_and_borrow_unescaped_text() {
        let line = r#"{"ev":"failure","t":1.5,"s\u0065nsor":3,"sensor":4,"n":{"a":[1]},"x":"\u00e9","ok":true,"no":false}"#;
        let scanned = fields(line).unwrap();
        let keys: Vec<&str> = scanned.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["ev", "t", "sensor", "sensor", "n", "x", "ok", "no"],
            "an escaped key arrives decoded"
        );
        assert_eq!(scanned[0].1, Raw::Str("failure"), "plain text borrows");
        assert!(matches!(
            scanned[0].1.as_str(),
            Some(Cow::Borrowed("failure"))
        ));
        assert_eq!(scanned[1].1, Raw::Num("1.5"));
        assert_eq!(scanned[3].1, Raw::Int(4));
        assert_eq!(scanned[4].1, Raw::Other);
        assert_eq!(
            scanned[5].1,
            Raw::Escaped(r#""\u00e9""#),
            "escaped text keeps its literal"
        );
        assert_eq!(
            scanned[5].1.as_str().as_deref(),
            Some("é"),
            "and decodes on use"
        );
        assert_eq!((&scanned[6].1, &scanned[7].1), (&Raw::True, &Raw::Other));
        // Any other top-level value parses but has no fields.
        assert!(fields(" [1, 2] ").unwrap().is_empty());
        assert!(fields("{}").unwrap().is_empty());
    }

    #[test]
    fn fields_reject_what_parse_rejects_with_the_same_error() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":1,}",
            "{,}",
            "{\"a\":[1,]}",
            "{\"a\":1}tail",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"open",
            "{\"a\":tru}",
            "{\"a\":-}",
            "{\"a\":1e}",
        ] {
            assert_eq!(
                scan_fields(bad, |_, _| {}).unwrap_err(),
                parse(bad).unwrap_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn word_scans_match_byte_loops() {
        // Every byte value at every offset of a 20-byte window, in
        // runs long enough for the eight-byte path and its tail.
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20_000 {
            let len = 1 + round % 20;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            // Bias towards runs of digits and plain text.
            for b in bytes.iter_mut() {
                match next() % 4 {
                    0 => *b = b'0' + (next() % 10) as u8,
                    1 => *b = b'a' + (next() % 26) as u8,
                    _ => {}
                }
            }
            for i in 0..=len {
                let digits = i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count();
                assert_eq!(digits_end(&bytes, i), digits, "{bytes:?} from {i}");
                let run = bytes[i..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map(|n| i + n);
                assert_eq!(string_run_end(&bytes, i), run, "{bytes:?} from {i}");
            }
        }
    }

    #[test]
    fn strings_mixing_runs_and_escapes_decode() {
        let v = parse(r#""π=\u03c0, \"q\" — ok\\""#).unwrap();
        assert_eq!(v.as_str(), Some("π=π, \"q\" — ok\\"));
        let open = "\"π unterminated";
        let err = parse(open).unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (open.len(), "unterminated string")
        );
    }
}
