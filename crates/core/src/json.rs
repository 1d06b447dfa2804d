//! Minimal, dependency-free JSON used by the wire format.
//!
//! The build environment is offline (no serde), so this module is the whole
//! codec: a small document model ([`JsonValue`]) and, on top of it, the
//! [`Wire`] field table every wire shape is declared through. Two
//! properties matter for a wire format and are guaranteed here:
//!
//! * **Lossless numbers** — [`JsonValue::Num`] stores the raw token, so
//!   `u64` counters and nanosecond durations survive a round trip without
//!   passing through `f64`; floats are written with Rust's shortest
//!   round-trip formatting, so `parse(render(x)) == x` bit-for-bit.
//! * **Deterministic rendering** — objects keep insertion order and the
//!   writer emits no insignificant whitespace, so equal values render to
//!   equal strings (usable as cache keys by a serving layer).
//!
//! The parser is a strict recursive-descent JSON reader (escapes and
//! `\uXXXX` surrogate pairs included). It rejects trailing garbage, and —
//! because this codec now fronts a network socket where the *sender* picks
//! the document shape — bounds nesting at [`MAX_DEPTH`] so a frame of ten
//! thousand `[`s is a typed parse error, not a stack overflow. Malformed
//! input of any kind returns `Err`; the parser never panics (fuzzed in
//! `tests/json_hardening.rs`).
//!
//! # The `Wire` rules
//!
//! A wire shape is declared **once** — [`wire_struct!`](crate::wire_struct)
//! for an object, [`wire_enum!`](crate::wire_enum) for a `"type"`-tagged
//! enum — and both directions of its codec follow from the declaration,
//! through [`put`] and [`take`]:
//!
//! * a key is **required** unless its type or its declaration says what
//!   absence decodes to ([`Wire::absent`]): `None` for an `Option<T>`,
//!   `Default::default()` for a field declared `= default`;
//! * `null` is the same as absent, everywhere;
//! * an [omitted](Wire::omitted) value's key is left out on encode: `None`
//!   always, a `= sparse` field while it equals its default;
//! * unknown keys are ignored (the minor-version rule: additive fields
//!   never break an older peer);
//! * floats are finite in both directions; integers round-trip through
//!   their own width (`u32` overflow is an error, `u64` is lossless);
//! * a decode error names the offending key (`"epoch": must be a u64`).

use std::fmt;
use std::time::Duration;

/// Maximum container nesting the parser accepts. The wire formats use a
/// small constant depth (≤ 4); 128 leaves two orders of magnitude of
/// headroom while keeping recursion far from the stack guard.
pub const MAX_DEPTH: usize = 128;

/// One JSON document node.
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
    /// Wraps a float using Rust's shortest round-trip `Display` formatting.
    /// The value must be finite — JSON has no NaN/∞ tokens.
    pub fn num_f64(x: f64) -> JsonValue {
        debug_assert!(x.is_finite(), "JSON numbers must be finite");
        JsonValue::Num(format!("{x}"))
    }

    pub fn num_u64(x: u64) -> JsonValue {
        JsonValue::Num(x.to_string())
    }

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

    pub fn as_usize(&self) -> Option<usize> {
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
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(raw) => f.write_str(raw),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} but found {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let d0 = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > d0
    };
    if !digits(bytes, pos) {
        return Err(format!("invalid number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("number tokens are ASCII");
    Ok(JsonValue::Num(raw.to_string()))
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let slice = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
    let s = std::str::from_utf8(slice).map_err(|_| "non-ASCII in \\u escape".to_string())?;
    let v = u32::from_str_radix(s, 16).map_err(|_| format!("invalid \\u escape {s:?}"))?;
    *pos += 4;
    Ok(v)
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
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a \uXXXX low half must follow.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("unpaired surrogate in \\u escape".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate in \\u escape".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(cp)
                                .ok_or_else(|| format!("invalid code point U+{cp:X}"))?,
                        );
                        continue; // pos already past the escape
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so slicing
                // at char boundaries is safe; find the next boundary).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("UTF-8 input"));
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
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
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// A value with exactly one JSON form; see the [module docs](self) for the
/// rules. Implemented once per leaf here and once per declared shape by
/// [`wire_struct!`](crate::wire_struct) / [`wire_enum!`](crate::wire_enum).
pub trait Wire: Sized {
    fn to_wire(&self) -> JsonValue;

    /// Decodes a present, non-`null` value; the error says what was
    /// expected ([`take`] prefixes the key).
    fn from_wire(v: &JsonValue) -> Result<Self, String>;

    /// What an absent (or `null`) key decodes to; `None` makes the key
    /// required.
    fn absent() -> Option<Self> {
        None
    }

    /// Whether [`put`] leaves this value's key out of the object.
    fn omitted(&self) -> bool {
        false
    }
}

/// Appends `key: value` to an object under construction, unless the value
/// is [`Wire::omitted`].
pub fn put<T: Wire>(fields: &mut Vec<(String, JsonValue)>, key: &str, value: &T) {
    if !value.omitted() {
        fields.push((key.to_string(), value.to_wire()));
    }
}

/// Decodes the value under `key` of an object (anything else has no keys).
pub fn take<T: Wire>(doc: &JsonValue, key: &str) -> Result<T, String> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => T::absent().ok_or_else(|| format!("missing \"{key}\"")),
        Some(v) => T::from_wire(v).map_err(|e| format!("\"{key}\": {e}")),
    }
}

macro_rules! wire_uint {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn to_wire(&self) -> JsonValue {
                JsonValue::Num(self.to_string())
            }

            fn from_wire(v: &JsonValue) -> Result<Self, String> {
                let n = v.as_u64().and_then(|n| <$t>::try_from(n).ok());
                Ok(n.ok_or(concat!("must be a ", stringify!($t)))?)
            }
        }
    )*};
}
wire_uint!(u64, u32, usize);

impl Wire for bool {
    fn to_wire(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        Ok(v.as_bool().ok_or("must be a boolean")?)
    }
}

/// Finite only, both ways: JSON has no NaN/∞ tokens, and an overflowing
/// token such as `1e999` must not decode to a value that cannot be
/// re-encoded.
impl Wire for f64 {
    fn to_wire(&self) -> JsonValue {
        JsonValue::num_f64(*self)
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        let finite = v.as_f64().filter(|x| x.is_finite());
        Ok(finite.ok_or("must be a finite number")?)
    }
}

impl Wire for String {
    fn to_wire(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        Ok(v.as_str().ok_or("must be a string")?.to_string())
    }
}

/// Whole nanoseconds as a `u64` (saturating: ~584 years).
impl Wire for Duration {
    fn to_wire(&self) -> JsonValue {
        JsonValue::num_u64(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        u64::from_wire(v).map(Duration::from_nanos)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_wire(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Wire::to_wire).collect())
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_arr().ok_or("must be an array")?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::from_wire(item)?);
        }
        Ok(out)
    }
}

/// Absent, `null` and `None` are one state: omitted on encode, `None` on
/// decode ([`take`] maps `null` to absent before `from_wire` runs).
impl<T: Wire> Wire for Option<T> {
    fn to_wire(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Wire::to_wire)
    }

    fn from_wire(v: &JsonValue) -> Result<Self, String> {
        T::from_wire(v).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

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
            fn to_wire(&self) -> $crate::json::JsonValue {
                let mut fields = Vec::with_capacity([$(stringify!($f)),*].len());
                $( $crate::wire_struct!(@put fields, &self.$f, $ty, [$f $($key)?] [$($mode)?]); )*
                $crate::json::JsonValue::Obj(fields)
            }

            fn from_wire(doc: &$crate::json::JsonValue) -> Result<Self, String> {
                Ok($name {
                    $( $f: $crate::wire_struct!(@take doc, $ty, [$f $($key)?] [$($mode)?]) ),*
                })
            }
        }
    };
    (@key [$f:ident]) => { stringify!($f) };
    (@key [$f:ident $key:literal]) => { $key };
    (@put $fields:ident, $value:expr, $ty:ty, $key:tt [sparse]) => {
        if *$value != <$ty>::default() {
            $crate::wire_struct!(@put $fields, $value, $ty, $key [])
        }
    };
    (@put $fields:ident, $value:expr, $ty:ty, $key:tt [$(default)?]) => {
        $crate::json::put(&mut $fields, $crate::wire_struct!(@key $key), $value)
    };
    (@take $doc:ident, $ty:ty, $key:tt []) => {
        $crate::json::take::<$ty>($doc, $crate::wire_struct!(@key $key))?
    };
    (@take $doc:ident, $ty:ty, $key:tt [$mode:ident]) => {
        $crate::json::take::<Option<$ty>>($doc, $crate::wire_struct!(@key $key))?.unwrap_or_default()
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
            fn to_wire(&self) -> $crate::json::JsonValue {
                match self {
                    $( $name::$variant $({ $($f),* })? $(( $tf ))? => {
                        #[allow(unused_mut)]
                        let mut fields = Vec::with_capacity(1 + <[&str]>::len(&[$($(stringify!($f)),*)?]));
                        fields.push(("type".to_string(), $crate::json::JsonValue::Str($tag.to_string())));
                        $($( $crate::wire_struct!(@put fields, $f, $ty, [$f $($key)?] [$($mode)?]); )*)?
                        $( $crate::json::put(&mut fields, stringify!($tf), $tf); )?
                        $crate::json::JsonValue::Obj(fields)
                    } )*
                }
            }

            fn from_wire(doc: &$crate::json::JsonValue) -> Result<Self, String> {
                match doc.get("type").and_then(|t| t.as_str()) {
                    $( Some($tag) => Ok($name::$variant
                        $({ $( $f: $crate::wire_struct!(@take doc, $ty, [$f $($key)?] [$($mode)?]) ),* })?
                        $(( $crate::json::take::<$tty>(doc, stringify!($tf))? ))?
                    ), )*
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
            let rendered = JsonValue::num_f64(x).to_string();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} mangled via {rendered}");
        }
        let big = u64::MAX;
        let rendered = JsonValue::num_u64(big).to_string();
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
        assert_eq!(v.get("a").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("b").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::parse(r#"{"k":3,"s":"x","b":false,"a":[1]}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_usize(), Some(3));
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

    fn decode<T: Wire>(text: &str) -> Result<T, String> {
        T::from_wire(&JsonValue::parse(text).unwrap())
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
        assert_eq!(probe.to_wire().to_string(), text);
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
        assert_eq!(bare.to_wire().to_string(), text);
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
            assert_eq!(shape.to_wire().to_string(), text);
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
        let entry: (f64, Posting) = (180.5, (4, 2));
        assert_eq!(entry.to_wire().to_string(), "[180.5,4,2]");
        assert_eq!(decode::<(f64, Posting)>("[180.5,4,2]").unwrap(), entry);
        assert!(decode::<(f64, Posting)>("[180.5,[4,2]]").is_err());
        assert_eq!(
            decode::<Vec<Posting>>("[[1,0],[4,2]]").unwrap(),
            [(1, 0), (4, 2)]
        );
        assert!(decode::<Posting>("[1,0,0]").is_err());
        assert!(decode::<Posting>("[1,-1]").is_err());
    }
}
