//! Minimal, dependency-free JSON: the wire codec and a generic document type.
//!
//! The build environment is offline (no serde), so this module is the whole
//! codec. It has three parts over **one tokenizer** ([`Reader`]) and **one
//! string escaper** ([`write_str`]):
//!
//! * the [`Wire`] trait every wire shape implements, with its writer
//!   ([`Wire::write_wire`], appending bytes to a `String`) and its reader
//!   ([`Wire::read_wire`], decoding straight from the frame text);
//! * the declarations [`wire_struct!`](crate::wire_struct) and
//!   [`wire_enum!`](crate::wire_enum), from which both directions of a
//!   shape's codec follow, through the two object helpers
//!   [`ObjectWriter`] and [`Reader::object`] (with a [`Slot`] per key);
//! * [`JsonValue`], a generic document (parse, inspect, render) for
//!   callers that hold JSON of no fixed shape — benchmark declarations,
//!   test fixtures. No wire shape goes through it.
//!
//! **Why there is no tree.** A served answer is a list of
//! `(id, start, end, dist)` rows — hundreds per query. Building a
//! [`JsonValue`] per frame allocated a `String` for every key and every
//! number and rendered the tree through `fmt`; decoding parsed the whole
//! frame into owned trees and then looked keys up in them. That codec was
//! about as expensive as the engine on light queries. The writer now appends
//! a value's bytes in one pass (integers without `fmt`, floats with their
//! shortest round-trip `Display`), and the reader decodes each key's value
//! where it stands in the text, skipping what the shape does not declare.
//!
//! Two properties matter for a wire format and are guaranteed here:
//!
//! * **Lossless numbers** — integers round-trip through their own width
//!   (`u64` counters and nanosecond durations never pass through `f64`);
//!   floats are written with Rust's shortest round-trip formatting, so
//!   `decode(encode(x)) == x` bit-for-bit. [`JsonValue::Num`] keeps the raw
//!   token for the same reason.
//! * **Deterministic rendering** — fields are written in declaration order
//!   with no insignificant whitespace, so equal values render to equal
//!   strings (usable as cache keys by a serving layer).
//!
//! The tokenizer is strict JSON (escapes and `\uXXXX` surrogate pairs
//! included). It rejects trailing garbage, and — because this codec fronts a
//! network socket where the *sender* picks the document shape — bounds
//! nesting at [`MAX_DEPTH`], counted from the top of the document, so a
//! frame of ten thousand `[`s is a typed error, not a stack overflow.
//! Malformed input of any kind returns `Err`; nothing panics (fuzzed in
//! `tests/json_hardening.rs` and `serve/tests/wire_golden.rs`).
//!
//! # The `Wire` rules
//!
//! * a key is **required** unless its type or its declaration says what
//!   absence decodes to ([`Wire::absent`]): `None` for an `Option<T>`,
//!   `Default::default()` for a field declared `= default`;
//! * `null` is the same as absent, everywhere;
//! * an [omitted](Wire::omitted) value's key is left out on encode: `None`
//!   always, a `= sparse` field while it equals its default;
//! * keys may come in **any order**; the **first** of duplicate keys wins
//!   and later ones are skipped;
//! * unknown keys are validated and skipped, at the same depth bound (the
//!   minor-version rule: additive fields never break an older peer);
//! * floats are finite in both directions; integers round-trip through
//!   their own width (`u32` overflow is an error, `u64` is lossless);
//! * a decode error names the offending key path
//!   (`"body": "epoch": must be a u64`, `missing "shard"`), and when several
//!   keys are wrong the first in **declaration** order is reported, whatever
//!   the document order — a [`Slot`] keeps a failed value's error and skips
//!   the value;
//! * a syntax error anywhere in a document wins over any decode error:
//!   [`decode`] re-scans the text on its error path only.
//!
//! A [`wire_enum!`](crate::wire_enum) object is tagged by its first
//! `"type"` key. The tag is looked up before the fields are decoded — at
//! once when `"type"` leads, as it does in every frame this codec writes;
//! otherwise by one skim of the object, without allocating.

use std::borrow::Cow;
use std::fmt;
use std::time::Duration;

/// Maximum container nesting the tokenizer accepts. The wire formats use a
/// small constant depth (≤ 6); 128 leaves two orders of magnitude of
/// headroom while keeping recursion far from the stack guard.
pub const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped (`\n`, `\r`, `\t` by name, the rest as `\u00XX`),
/// everything else verbatim — so a rendered document never holds a raw
/// newline.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` in decimal, without the `fmt` machinery.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends a finite float in Rust's shortest round-trip `Display` form.
fn write_f64(out: &mut String, x: f64) {
    use fmt::Write as _;
    debug_assert!(x.is_finite(), "JSON numbers must be finite");
    let _ = write!(out, "{x}");
}

/// Renders a value's wire form.
pub fn encode<T: Wire>(value: &T) -> String {
    let mut out = String::new();
    value.write_wire(&mut out);
    out
}

/// The object helper of every encoder: `{`, one `"key":value` member per
/// [`field`](ObjectWriter::field) whose value is not
/// [omitted](Wire::omitted), then `}` at [`end`](ObjectWriter::end).
pub struct ObjectWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl<'o> ObjectWriter<'o> {
    pub fn new(out: &'o mut String) -> ObjectWriter<'o> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Starts a member and returns the buffer its value is written to.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes `key: value`, unless the value is [`Wire::omitted`].
    pub fn field<T: Wire>(&mut self, key: &str, value: &T) {
        if !value.omitted() {
            value.write_wire(self.key(key));
        }
    }

    pub fn end(self) {
        self.out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Decodes a whole document as `T` in one pass over `text`. Only on failure
/// is the text scanned again, so that a syntax error anywhere in it is
/// reported in preference to the decode error.
pub fn decode<T: Wire>(text: &str) -> Result<T, String> {
    let mut r = Reader::new(text);
    T::read_wire(&mut r)
        .and_then(|value| r.finish().map(|()| value))
        .map_err(|e| check(text).err().unwrap_or(e))
}

/// Checks that `text` is exactly one well-formed JSON document.
pub fn check(text: &str) -> Result<(), String> {
    let mut r = Reader::new(text);
    r.skip_value()?;
    r.finish()
}

/// The tokenizer: a cursor over JSON text, and the only code in this crate
/// that reads JSON. Typed decoders ([`Wire::read_wire`]) pull values from
/// it where they stand; [`skip_member`](Reader::skip_member) validates and
/// steps over what they do not want; [`JsonValue::parse`] builds a document
/// from the same tokens. Nesting is counted from the top of the text, so
/// the [`MAX_DEPTH`] bound holds however a value is reached.
///
/// Value readers skip leading whitespace themselves. A typed read that
/// returns `Ok(None)`/`None` consumed nothing; one that fails may stop
/// mid-value — [`Slot::read`] restores a saved clone and skips the value.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// A key of the outermost object to keep the raw value of, and that
    /// value once seen ([`Reader::capturing`]).
    capture: Option<(&'static str, Option<&'a str>)>,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            capture: None,
        }
    }

    /// A reader that also keeps the raw value of the first `key` member of
    /// the outermost object that the shape being decoded does not declare
    /// (see [`skip_member`](Reader::skip_member)) — how an envelope field
    /// such as a frame's protocol version is read in the same pass as the
    /// frame.
    pub fn capturing(text: &'a str, key: &'static str) -> Reader<'a> {
        Reader {
            capture: Some((key, None)),
            ..Reader::new(text)
        }
    }

    /// The raw text of the captured member's value, if one was seen.
    pub fn captured(&self) -> Option<&'a str> {
        self.capture.and_then(|(_, raw)| raw)
    }

    /// Requires the end of the text (whitespace aside).
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} but found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    /// The depth check at the start of every value a walker visits.
    fn enter(&self) -> Result<(), String> {
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Consumes a `null` if that is the next value.
    fn null(&mut self) -> bool {
        self.skip_ws();
        let found = self.bytes()[self.pos..].starts_with(b"null");
        if found {
            self.pos += 4;
        }
        found
    }

    /// Consumes a `true`/`false` if that is the next value.
    fn bool(&mut self) -> Option<bool> {
        self.skip_ws();
        let rest = &self.bytes()[self.pos..];
        let value = if rest.starts_with(b"true") {
            true
        } else if rest.starts_with(b"false") {
            false
        } else {
            return None;
        };
        self.pos += if value { 4 } else { 5 };
        Some(value)
    }

    /// The raw token of the next value if it is a number.
    fn number(&mut self) -> Result<Option<&'a str>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number_token().map(Some),
            _ => Ok(None),
        }
    }

    fn number_token(&mut self) -> Result<&'a str, String> {
        let bytes = self.bytes();
        let start = self.pos;
        let digits = |pos: &mut usize| {
            let d0 = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            *pos > d0
        };
        let mut pos = start;
        if bytes.get(pos) == Some(&b'-') {
            pos += 1;
        }
        let mut valid = digits(&mut pos);
        if valid && bytes.get(pos) == Some(&b'.') {
            pos += 1;
            valid = digits(&mut pos);
        }
        if valid && matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            valid = digits(&mut pos);
        }
        if !valid {
            self.pos = pos;
            return Err(format!("invalid number at byte {start}"));
        }
        self.pos = pos;
        Ok(&self.text[start..pos])
    }

    /// The next value if it is a string: borrowed from the text unless it
    /// holds an escape.
    pub fn string(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Ok(None);
        }
        self.string_token().map(Some)
    }

    fn string_token(&mut self) -> Result<Cow<'a, str>, String> {
        let start = self.pos;
        let (raw, escaped) = self.scan_string(None)?;
        if !escaped {
            return Ok(Cow::Borrowed(raw));
        }
        let mut decoded = String::with_capacity(raw.len());
        self.pos = start;
        self.scan_string(Some(&mut decoded))?;
        Ok(Cow::Owned(decoded))
    }

    /// Scans the string token at the reader (opening quote included),
    /// appending its decoded content to `out` when given. Returns the raw
    /// text between the quotes and whether it holds an escape.
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(&'a str, bool), String> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        let mut run = start;
        let mut escaped = false;
        loop {
            let Some(at) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = bytes.len();
                return Err("unterminated string".into());
            };
            self.pos += at;
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..self.pos]);
            }
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok((&self.text[start..self.pos - 1], escaped));
            }
            escaped = true;
            self.pos += 1;
            let c = self.escape()?;
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
            run = self.pos;
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a \uXXXX low half must follow.
                    if !self.bytes()[self.pos..].starts_with(b"\\u") {
                        return Err("unpaired surrogate in \\u escape".into());
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("invalid low surrogate in \\u escape".into());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(cp).ok_or_else(|| format!("invalid code point U+{cp:X}"));
            }
            other => return Err(format!("invalid escape {other:?}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let slice = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let s = std::str::from_utf8(slice).map_err(|_| "non-ASCII in \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape {s:?}"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Opens an array if that is the next value; iterate its elements with
    /// [`next_item`](Reader::next_item).
    fn begin_arr(&mut self) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(b'[');
        if found {
            self.pos += 1;
            self.depth += 1;
        }
        found
    }

    /// Whether another element follows (the reader is then at it) or the
    /// array closed. `first` starts `true` and is kept by the caller.
    fn next_item(&mut self, first: &mut bool) -> Result<bool, String> {
        self.skip_ws();
        let more = match self.peek() {
            Some(b']') => false,
            _ if std::mem::take(first) => return Ok(true),
            Some(b',') => true,
            _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
        };
        self.pos += 1;
        if !more {
            self.depth -= 1;
        }
        Ok(more)
    }

    /// Opens an object if that is the next value; iterate its members with
    /// [`next_key`](Reader::next_key).
    fn begin_obj(&mut self) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(b'{');
        if found {
            self.pos += 1;
            self.depth += 1;
        }
        found
    }

    /// The next member's key (the reader is then at its value), or `None`
    /// when the object closed. `first` starts `true` and is kept by the
    /// caller.
    fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if std::mem::take(first) {
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(None);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        let key = self.string_token()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// The object helper of every decoder: calls `member` with each key of
    /// the object at the reader, in document order, with the reader at that
    /// key's value — which `member` must consume. Anything but an object
    /// has no keys: it is validated and skipped, and `member` is not called.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        if !self.begin_obj() {
            return self.skip_value();
        }
        let mut first = true;
        while let Some(key) = self.next_key(&mut first)? {
            member(self, &key)?;
        }
        Ok(())
    }

    /// Skips the value of a member the shape does not declare — keeping it
    /// if it is the outermost object's captured key
    /// ([`capturing`](Reader::capturing)).
    pub fn skip_member(&mut self, key: &str) -> Result<(), String> {
        self.skip_ws();
        let start = self.pos;
        self.skip_value()?;
        let (text, end, outermost) = (self.text, self.pos, self.depth == 1);
        if let Some((wanted, raw @ None)) = &mut self.capture {
            if outermost && *wanted == key {
                *raw = Some(&text[start..end]);
            }
        }
        Ok(())
    }

    /// Validates and steps over the next value, whatever it is.
    fn skip_value(&mut self) -> Result<(), String> {
        self.walk(None)
    }

    /// The next value rendered as [`JsonValue`]'s `Display` would render
    /// it, without consuming it — for error messages that show a value.
    pub(crate) fn canonical(&self) -> Result<String, String> {
        let mut out = String::new();
        self.clone().walk(Some(&mut out))?;
        Ok(out)
    }

    /// Validates the next value and steps over it, appending its canonical
    /// rendering to `out` when given.
    fn walk(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        self.enter()?;
        self.skip_ws();
        match self.peek() {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => {
                self.begin_obj();
                push(&mut out, "{");
                let (mut first, mut sep) = (true, "");
                while let Some(key) = self.next_key(&mut first)? {
                    if let Some(out) = out.as_deref_mut() {
                        out.push_str(sep);
                        write_str(out, &key);
                        out.push(':');
                    }
                    sep = ",";
                    self.walk(out.as_deref_mut())?;
                }
                push(&mut out, "}");
            }
            Some(b'[') => {
                self.begin_arr();
                push(&mut out, "[");
                let (mut first, mut sep) = (true, "");
                while self.next_item(&mut first)? {
                    push(&mut out, sep);
                    sep = ",";
                    self.walk(out.as_deref_mut())?;
                }
                push(&mut out, "]");
            }
            Some(b'"') => match out {
                Some(out) => write_str(out, &self.string_token()?),
                None => {
                    self.scan_string(None)?;
                }
            },
            Some(b't') => {
                self.keyword("true")?;
                push(&mut out, "true");
            }
            Some(b'f') => {
                self.keyword("false")?;
                push(&mut out, "false");
            }
            Some(b'n') => {
                self.keyword("null")?;
                push(&mut out, "null");
            }
            Some(_) => {
                let token = self.number_token()?;
                push(&mut out, token);
            }
        }
        Ok(())
    }

    /// Error-path lookup: the raw text of the first member named `key` of
    /// the object at the reader, if the value there is a well-formed object
    /// up to that member. Does not move the reader.
    pub fn member(&self, key: &str) -> Option<&'a str> {
        let mut probe = Reader {
            capture: None,
            ..self.clone()
        };
        if !probe.begin_obj() {
            return None;
        }
        let mut first = true;
        while let Some(k) = probe.next_key(&mut first).ok()? {
            probe.skip_ws();
            let start = probe.pos;
            probe.skip_value().ok()?;
            if k == key {
                return Some(&self.text[start..probe.pos]);
            }
        }
        None
    }

    /// The `"type"` tag of the [`wire_enum!`](crate::wire_enum) object at
    /// the reader: its first `"type"` member, if that is a string.
    pub fn tag(&self) -> Option<Cow<'a, str>> {
        Reader::new(self.member("type")?).string().ok().flatten()
    }

    /// Decodes a fixed-length array positionally: `read` takes its
    /// elements in order, each through [`element`](Reader::element). When
    /// the value is not an array of exactly `len` elements the error is
    /// `what`, ahead of any element's own error.
    pub(crate) fn tuple<T>(
        &mut self,
        len: usize,
        what: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = self.clone();
        let error = if !self.begin_arr() {
            what.to_string()
        } else {
            match read(self).map(|value| (value, self.next_item(&mut false))) {
                Ok((value, Ok(false))) => return Ok(value),
                Ok((_, Ok(true))) => what.to_string(),
                Ok((_, Err(e))) | Err(e) => e,
            }
        };
        // Error path: count the elements, then report in the order a
        // length check ahead of the element reads would.
        *self = start.clone();
        let mut n = 0;
        if self.begin_arr() {
            let mut first = true;
            while self.next_item(&mut first)? {
                self.skip_value()?;
                n += 1;
            }
        }
        *self = start;
        Err(if n == len { error } else { what.to_string() })
    }

    /// Steps to element `index` of a [`tuple`](Reader::tuple).
    pub(crate) fn element(&mut self, index: usize) -> Result<&mut Self, String> {
        if self.next_item(&mut (index == 0))? {
            Ok(self)
        } else {
            Err("too few elements".into())
        }
    }

    /// Builds the [`JsonValue`] of the next value.
    fn value(&mut self) -> Result<JsonValue, String> {
        self.enter()?;
        self.skip_ws();
        Ok(match self.peek() {
            None => return Err("unexpected end of input".into()),
            Some(b'{') => {
                self.begin_obj();
                let mut pairs = Vec::new();
                let mut first = true;
                while let Some(key) = self.next_key(&mut first)? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                JsonValue::Obj(pairs)
            }
            Some(b'[') => {
                self.begin_arr();
                let mut items = Vec::new();
                let mut first = true;
                while self.next_item(&mut first)? {
                    items.push(self.value()?);
                }
                JsonValue::Arr(items)
            }
            Some(b'"') => JsonValue::Str(self.string_token()?.into_owned()),
            Some(b't') => {
                self.keyword("true")?;
                JsonValue::Bool(true)
            }
            Some(b'f') => {
                self.keyword("false")?;
                JsonValue::Bool(false)
            }
            Some(b'n') => {
                self.keyword("null")?;
                JsonValue::Null
            }
            Some(_) => JsonValue::Num(self.number_token()?.to_string()),
        })
    }
}

fn push(out: &mut Option<&mut String>, s: &str) {
    if let Some(out) = out.as_deref_mut() {
        out.push_str(s);
    }
}

/// One declared key of an object being decoded ([`Reader::object`]): the
/// first occurrence wins and later ones are skipped, `null` reads as
/// absent, and a value that fails to decode is skipped with its error kept
/// for [`take`](Slot::take) — so errors surface in declaration order, not
/// document order.
pub struct Slot<T>(Option<Result<Option<T>, String>>);

impl<T: Wire> Default for Slot<T> {
    fn default() -> Self {
        Slot(None)
    }
}

impl<T: Wire> Slot<T> {
    pub fn new() -> Self {
        Slot::default()
    }

    /// Reads the value the reader is at into this slot. Only a syntax error
    /// is returned; a decode error is kept for [`take`](Slot::take).
    pub fn read(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        if self.0.is_some() {
            return r.skip_value();
        }
        if r.null() {
            self.0 = Some(Ok(None));
            return Ok(());
        }
        let start = r.clone();
        self.0 = Some(match T::read_wire(r) {
            Ok(value) => Ok(Some(value)),
            Err(e) => {
                *r = start;
                r.skip_value()?;
                Err(e)
            }
        });
        Ok(())
    }

    /// The decoded value; absence (or `null`) decodes to [`Wire::absent`].
    /// Errors name `key`.
    pub fn take(self, key: &str) -> Result<T, String> {
        match self.0 {
            Some(Ok(Some(value))) => Ok(value),
            Some(Err(e)) => Err(format!("\"{key}\": {e}")),
            None | Some(Ok(None)) => T::absent().ok_or_else(|| format!("missing \"{key}\"")),
        }
    }
}

// ---------------------------------------------------------------------------
// The generic document
// ---------------------------------------------------------------------------

/// One JSON document node — for JSON of no fixed shape. Wire shapes do not
/// go through it (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A number kept as its raw token (see module docs for why).
    Num(String),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Key–value pairs in insertion order (duplicates are not merged; `get`
    /// returns the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// First value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error, as is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut r = Reader::new(text);
        let value = r.value()?;
        r.finish()?;
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => write_str(out, s),
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
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// The `Wire` trait and its leaves
// ---------------------------------------------------------------------------

/// A value with exactly one JSON form; see the [module docs](self) for the
/// rules. Implemented once per leaf here and once per declared shape by
/// [`wire_struct!`](crate::wire_struct) / [`wire_enum!`](crate::wire_enum).
pub trait Wire: Sized {
    /// Appends the value's JSON form to `out`.
    fn write_wire(&self, out: &mut String);

    /// Decodes the present, non-`null` value at the reader; the error says
    /// what was expected ([`Slot::take`] prefixes the key). On error the
    /// reader may be left mid-value.
    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String>;

    /// What an absent (or `null`) key decodes to; `None` makes the key
    /// required.
    fn absent() -> Option<Self> {
        None
    }

    /// Whether [`ObjectWriter::field`] leaves this value's key out of the
    /// object.
    fn omitted(&self) -> bool {
        false
    }
}

macro_rules! wire_uint {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn write_wire(&self, out: &mut String) {
                write_u64(out, *self as u64)
            }

            fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
                let n = r.number()?.and_then(|raw| raw.parse::<u64>().ok());
                n.and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| concat!("must be a ", stringify!($t)).to_string())
            }
        }
    )*};
}
wire_uint!(u64, u32, usize);

impl Wire for bool {
    fn write_wire(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" })
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        r.bool().ok_or_else(|| "must be a boolean".to_string())
    }
}

/// Finite only, both ways: JSON has no NaN/∞ tokens, and an overflowing
/// token such as `1e999` must not decode to a value that cannot be
/// re-encoded.
impl Wire for f64 {
    fn write_wire(&self, out: &mut String) {
        write_f64(out, *self)
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        let x = r.number()?.and_then(|raw| raw.parse::<f64>().ok());
        x.filter(|x| x.is_finite())
            .ok_or_else(|| "must be a finite number".to_string())
    }
}

impl Wire for String {
    fn write_wire(&self, out: &mut String) {
        write_str(out, self)
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        r.string()?
            .map(Cow::into_owned)
            .ok_or_else(|| "must be a string".to_string())
    }
}

/// Whole nanoseconds as a `u64` (saturating: ~584 years).
impl Wire for Duration {
    fn write_wire(&self, out: &mut String) {
        write_u64(out, u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        u64::read_wire(r).map(Duration::from_nanos)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write_wire(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_wire(out);
        }
        out.push(']');
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        if !r.begin_arr() {
            return Err("must be an array".to_string());
        }
        let mut items = Vec::new();
        let mut first = true;
        while r.next_item(&mut first)? {
            items.push(T::read_wire(r)?);
        }
        // A decoded answer is kept (a client holds its responses): hold
        // exactly its elements, not the growth slack.
        items.shrink_to_fit();
        Ok(items)
    }
}

/// Absent, `null` and `None` are one state: omitted on encode, `None` on
/// decode ([`Slot::read`] maps `null` to absent before `read_wire` runs).
impl<T: Wire> Wire for Option<T> {
    fn write_wire(&self, out: &mut String) {
        match self {
            Some(value) => value.write_wire(out),
            None => out.push_str("null"),
        }
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        T::read_wire(r).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

// ---------------------------------------------------------------------------
// The declarations
// ---------------------------------------------------------------------------

/// Declares a struct **and** its [`Wire`] codec: a JSON object whose keys
/// are the field names, in declaration order. Per-field modifiers:
/// `name as "key"` renames the key; `: T = default` decodes an absent key
/// as `T::default()` (for fields added after the first release of a
/// frame); `: T = sparse` additionally omits the key while the value
/// equals that default. [`SearchStats`](crate::SearchStats) uses the first
/// two.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident $(as $key:literal)? : $ty:ty $(= $mode:ident)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name { $( $(#[$fmeta])* $fvis $f: $ty ),* }

        impl $crate::json::Wire for $name {
            fn write_wire(&self, out: &mut String) {
                let mut o = $crate::json::ObjectWriter::new(out);
                $( $crate::wire_struct!(@put o, &self.$f, $ty, [$f $($key)?] [$($mode)?]); )*
                o.end();
            }

            fn read_wire(r: &mut $crate::json::Reader<'_>) -> Result<Self, String> {
                $( let mut $f = $crate::wire_struct!(@slot $ty, [$($mode)?]); )*
                r.object(|r, key| {
                    $( if key == $crate::wire_struct!(@key [$f $($key)?]) {
                        return $f.read(r);
                    } )*
                    r.skip_member(key)
                })?;
                Ok($name {
                    $( $f: $crate::wire_struct!(@take $f, [$f $($key)?] [$($mode)?]) ),*
                })
            }
        }
    };
    (@key [$f:ident]) => { stringify!($f) };
    (@key [$f:ident $key:literal]) => { $key };
    (@put $o:ident, $value:expr, $ty:ty, $key:tt [sparse]) => {
        if *$value != <$ty>::default() {
            $crate::wire_struct!(@put $o, $value, $ty, $key [])
        }
    };
    (@put $o:ident, $value:expr, $ty:ty, $key:tt [$(default)?]) => {
        $o.field($crate::wire_struct!(@key $key), $value)
    };
    (@slot $ty:ty, []) => { $crate::json::Slot::<$ty>::new() };
    (@slot $ty:ty, [$mode:ident]) => { $crate::json::Slot::<Option<$ty>>::new() };
    (@take $slot:ident, $key:tt []) => {
        $slot.take($crate::wire_struct!(@key $key))?
    };
    (@take $slot:ident, $key:tt [$mode:ident]) => {
        $slot.take($crate::wire_struct!(@key $key))?.unwrap_or_default()
    };
}

/// Declares an enum **and** its [`Wire`] codec: a JSON object tagged by
/// `"type"`, followed by the variant's fields in declaration order. A
/// variant is `Name as "tag" { fields }` (the [`wire_struct!`] field
/// grammar), `Name as "tag" (key: T)` for a one-field tuple variant, or
/// `Name as "tag"` alone. A trailing `fn name(&self) -> T;` generates an
/// accessor for a field every variant declares under that name.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])* $variant:ident as $tag:literal
                $({ $( $(#[$fmeta:meta])* $f:ident $(as $key:literal)? : $ty:ty $(= $mode:ident)? ),* $(,)? })?
                $(( $tf:ident : $tty:ty ))?
            ),* $(,)?
        }
        $( $(#[$gmeta:meta])* $gvis:vis fn $getter:ident(&self) -> $gty:ty; )?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $f: $ty ),* })? $(( $tty ))? ),*
        }

        impl $crate::json::Wire for $name {
            fn write_wire(&self, out: &mut String) {
                match self {
                    $( $name::$variant $({ $($f),* })? $(( $tf ))? => {
                        let mut o = $crate::json::ObjectWriter::new(out);
                        $crate::json::write_str(o.key("type"), $tag);
                        $($( $crate::wire_struct!(@put o, $f, $ty, [$f $($key)?] [$($mode)?]); )*)?
                        $( o.field(stringify!($tf), $tf); )?
                        o.end();
                    } )*
                }
            }

            fn read_wire(r: &mut $crate::json::Reader<'_>) -> Result<Self, String> {
                match r.tag().as_deref() {
                    $( Some($tag) => {
                        $($( let mut $f = $crate::wire_struct!(@slot $ty, [$($mode)?]); )*)?
                        $( let mut $tf = $crate::json::Slot::<$tty>::new(); )?
                        r.object(|r, key| {
                            $($( if key == $crate::wire_struct!(@key [$f $($key)?]) {
                                return $f.read(r);
                            } )*)?
                            $( if key == stringify!($tf) {
                                return $tf.read(r);
                            } )?
                            r.skip_member(key)
                        })?;
                        Ok($name::$variant
                            $({ $( $f: $crate::wire_struct!(@take $f, [$f $($key)?] [$($mode)?]) ),* })?
                            $(( $tf.take(stringify!($tf))? ))?
                        )
                    } )*
                    Some(other) => Err(format!("unknown type {other:?}")),
                    None => Err("missing string \"type\"".to_string()),
                }
            }
        }

        $crate::wire_enum!(@getter $name [$($variant)*] $( $(#[$gmeta])* $gvis fn $getter -> $gty )?);
    };
    (@getter $name:ident [$($variant:ident)*]) => {};
    (@getter $name:ident [$($variant:ident)*] $(#[$gmeta:meta])* $gvis:vis fn $getter:ident -> $gty:ty) => {
        impl $name {
            $(#[$gmeta])*
            $gvis fn $getter(&self) -> $gty {
                match self {
                    $( $name::$variant { $getter, .. } => *$getter ),*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Posting;

    #[test]
    fn round_trips_a_document() {
        let text = r#"{"a":[1,2.5,-3e-2],"b":"x\"y\\z","c":true,"d":null,"e":{}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn numbers_are_lossless() {
        for x in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -0.0, 1e-300] {
            let rendered = JsonValue::Num(x.to_string()).to_string();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled via {rendered}");
        }
        let big = u64::MAX;
        let rendered = JsonValue::Num(big.to_string()).to_string();
        assert_eq!(JsonValue::parse(&rendered).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn string_escapes() {
        let v = JsonValue::Str("tab\there \"quoted\" \\ \u{1}".into());
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        // Unicode escapes (incl. surrogate pairs) parse correctly.
        let v = JsonValue::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01x",
            "\"\\q\"",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_a_typed_error() {
        // A hostile frame of nested containers must be a parse error, not a
        // stack overflow (this parser fronts a network socket).
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(50_000);
            let err = JsonValue::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting deeper"), "got {err:?}");
        }
        // Depth exactly at the limit parses; one past it does not.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&too_deep).is_err());
    }

    #[test]
    fn non_finite_tokens_are_rejected() {
        // JSON has no NaN/Infinity literals; they must not sneak in as
        // keywords or numbers.
        for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf", "-inf"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Huge exponents still parse as raw tokens; the conversion is what
        // saturates, and callers validate finiteness downstream.
        let v = JsonValue::parse("1e999").unwrap();
        assert_eq!(v.as_f64(), Some(f64::INFINITY));
        assert_eq!(v.as_u64(), None);
    }

    #[test]
    fn duplicate_keys_keep_first_wins_semantics() {
        let v = JsonValue::parse(r#"{"a":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::parse(r#"{"k":3,"s":"x","b":false,"a":[1]}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }

    crate::wire_struct! {
        #[derive(Debug, Clone, PartialEq, Default)]
        struct Probe {
            id: u64,
            shard: u32,
            wall as "wall_ns": Duration,
            note: Option<String>,
            added_later: u64 = default,
            tags: Vec<String> = sparse,
        }
    }

    crate::wire_enum! {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape {
            Dot as "dot",
            Circle as "circle" (radius: f64),
            Rect as "rect" { id: u64, w: f64, h: Option<f64> },
        }
    }

    crate::wire_enum! {
        #[derive(Debug, PartialEq)]
        enum Frame {
            Ping as "ping" { id: u64 },
            Data as "data" { id: u64, body: Probe },
        }
        fn id(&self) -> u64;
    }

    #[test]
    fn wire_struct_keys_follow_the_declaration() {
        let probe = Probe {
            id: u64::MAX,
            shard: 3,
            wall: Duration::from_nanos(1_500),
            note: Some("x".into()),
            added_later: 0,
            tags: vec!["a".into()],
        };
        let text = r#"{"id":18446744073709551615,"shard":3,"wall_ns":1500,"note":"x","added_later":0,"tags":["a"]}"#;
        assert_eq!(encode(&probe), text);
        assert_eq!(decode::<Probe>(text).unwrap(), probe);
    }

    #[test]
    fn optional_and_sparse_keys_are_omitted_and_absent_or_null_decodes_to_the_default() {
        let bare = Probe {
            id: 1,
            ..Probe::default()
        };
        // `None` and an empty sparse list are omitted; a `= default` field
        // is always written.
        let text = r#"{"id":1,"shard":0,"wall_ns":0,"added_later":0}"#;
        assert_eq!(encode(&bare), text);
        // Absent and `null` both decode to the declared default; unknown
        // keys are ignored.
        for text in [
            r#"{"id":1,"shard":0,"wall_ns":0}"#,
            r#"{"id":1,"shard":0,"wall_ns":0,"note":null,"added_later":null,"tags":null,"future":[1]}"#,
        ] {
            assert_eq!(decode::<Probe>(text).unwrap(), bare, "{text}");
        }
    }

    #[test]
    fn decode_errors_name_the_key() {
        // A required key that is missing (or null).
        let e = decode::<Probe>(r#"{"id":1,"wall_ns":0}"#).unwrap_err();
        assert_eq!(e, "missing \"shard\"");
        let e = decode::<Probe>(r#"{"id":1,"shard":null,"wall_ns":0}"#).unwrap_err();
        assert_eq!(e, "missing \"shard\"");
        // The wrong type, u32 overflow, and a renamed key.
        let e = decode::<Probe>(r#"{"id":"7","shard":0,"wall_ns":0}"#).unwrap_err();
        assert_eq!(e, "\"id\": must be a u64");
        let e = decode::<Probe>(r#"{"id":1,"shard":4294967296,"wall_ns":0}"#).unwrap_err();
        assert_eq!(e, "\"shard\": must be a u32");
        let e = decode::<Probe>(r#"{"id":1,"shard":0,"wall_ns":-1}"#).unwrap_err();
        assert_eq!(e, "\"wall_ns\": must be a u64");
        // A defaulted key that is present must still have the right type,
        // and nested errors carry the whole path.
        let e = decode::<Probe>(r#"{"id":1,"shard":0,"wall_ns":0,"added_later":[]}"#).unwrap_err();
        assert_eq!(e, "\"added_later\": must be a u64");
        let e = decode::<Frame>(r#"{"type":"data","id":1,"body":{"id":2}}"#).unwrap_err();
        assert_eq!(e, "\"body\": missing \"shard\"");
        // Not an object at all.
        assert_eq!(decode::<Probe>("[1]").unwrap_err(), "missing \"id\"");
    }

    #[test]
    fn wire_enum_is_tagged_by_type() {
        for (shape, text) in [
            (Shape::Dot, r#"{"type":"dot"}"#),
            (Shape::Circle(2.5), r#"{"type":"circle","radius":2.5}"#),
            (
                Shape::Rect {
                    id: 4,
                    w: 1.0,
                    h: None,
                },
                r#"{"type":"rect","id":4,"w":1}"#,
            ),
        ] {
            assert_eq!(encode(&shape), text);
            assert_eq!(decode::<Shape>(text).unwrap(), shape);
        }
        assert_eq!(
            decode::<Shape>(r#"{"type":"blob"}"#).unwrap_err(),
            "unknown type \"blob\""
        );
        assert_eq!(
            decode::<Shape>(r#"{"radius":1}"#).unwrap_err(),
            "missing string \"type\""
        );
        // The generated accessor reads the field every variant declares.
        assert_eq!(Frame::Ping { id: 9 }.id(), 9);
        let data =
            decode::<Frame>(r#"{"type":"data","id":7,"body":{"id":1,"shard":0,"wall_ns":0}}"#);
        assert_eq!(data.unwrap().id(), 7);
    }

    #[test]
    fn floats_are_finite_and_postings_are_arrays() {
        // An overflowing token is a decode error, not +∞.
        assert_eq!(
            decode::<Shape>(r#"{"type":"circle","radius":1e999}"#).unwrap_err(),
            "\"radius\": must be a finite number"
        );
        assert_eq!(
            decode::<Vec<Posting>>("[[1,0],[4,2]]").unwrap(),
            [(1, 0), (4, 2)]
        );
        assert!(decode::<Posting>("[1,0,0]").is_err());
        assert!(decode::<Posting>("[1,-1]").is_err());
    }
}
