//! Minimal JSON: a value type, serializer, recursive-descent parser, and
//! derive-free [`ToJson`]/[`FromJson`] conversion traits.
//!
//! An in-tree replacement for the slice of `serde`/`serde_json` this
//! workspace uses: checkpoint and store manifests, session state headers,
//! metrics output, and benchmark result files. Object key order is
//! preserved (insertion order), so serialized output is deterministic.
//!
//! Conventions match what `serde_json` produced for the same types, so the
//! on-disk artifacts stay human-readable and diffable:
//! - structs → objects with field-name keys (see [`json_struct!`](crate::json_struct)),
//! - unit enum variants → strings, data variants → `{"Variant": {...}}`
//!   (see [`json_enum!`](crate::json_enum)),
//! - `Option` → value or `null`, missing object fields read as `null`,
//! - tuples → fixed-length arrays.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer (or huge) number, stored as `f64`.
    Num(f64),
    /// An integer, stored exactly. `f64` alone silently rounds integers
    /// above 2^53, which corrupts 64-bit hashes/signatures.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64` (must be an integer).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            Json::Num(n)
                if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object pairs.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact serialization.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, ind, d| {
                    items[i].write(out, ind, d)
                })
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, ind, d| {
                    let (k, v) = &pairs[i];
                    write_escaped(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind, d)
                })
            }
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            // `1` and `1.0` are the same JSON number; compare numerically so
            // parse/print round trips don't depend on the storage variant.
            (Json::Num(a), Json::Int(b)) | (Json::Int(b), Json::Num(a)) => *a == *b as f64,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; serialize as null (lenient, like
        // `JSON.stringify`).
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, indent, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

/// Errors from parsing or conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. Documents from untrusted
/// peers (distributed workers/coordinators, serving clients) must produce
/// a parse error rather than exhaust the call stack: `value`/`array`/
/// `object` are mutually recursive, so unbounded `[[[…]]]` input would
/// otherwise overflow. 128 is far deeper than any wire DTO in the tree
/// (checkpoint headers nest < 10) while staying thousands of frames below
/// stack limits.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    /// Called on entering an array/object; errors past [`MAX_PARSE_DEPTH`].
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char. `pos` sits on a char
                    // boundary of the input `&str`, so this decodes only that
                    // char; re-validating the whole rest of the input per char
                    // made parsing quadratic in the document's length.
                    let rest = self.text.get(self.pos..).ok_or_else(|| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = s.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        s.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Conversion into [`Json`].
pub trait ToJson {
    /// This value as a JSON tree.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`].
pub trait FromJson: Sized {
    /// Reconstructs the value from a JSON tree.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly (the `serde_json::to_vec`
/// replacement).
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    value.to_json().to_string().into_bytes()
}

/// Serializes any [`ToJson`] value with pretty indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses bytes and converts (the `serde_json::from_slice` replacement).
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let s = std::str::from_utf8(bytes).map_err(|e| JsonError(format!("invalid utf-8: {e}")))?;
    T::from_json(&Json::parse(s)?)
}

/// Parses a string and converts.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

/// Reads a struct field by name; missing keys read as `null` (so `Option`
/// fields default to `None`, matching serde's behavior).
pub fn from_field<T: FromJson>(j: &Json, name: &str) -> Result<T, JsonError> {
    if j.as_obj().is_none() {
        return Err(JsonError(format!("expected object with field '{name}'")));
    }
    let field = j.get(name).unwrap_or(&Json::Null);
    T::from_json(field).map_err(|e| JsonError(format!("field '{name}': {}", e.0)))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool().ok_or_else(|| JsonError(format!("expected bool, got {j}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str().map(str::to_string).ok_or_else(|| JsonError(format!("expected string, got {j}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let v = j.as_u64().ok_or_else(|| JsonError(format!(
                    concat!("expected ", stringify!($t), ", got {}"), j)))?;
                <$t>::try_from(v).map_err(|_| JsonError(format!(
                    concat!("value {} out of range for ", stringify!($t)), v)))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let v = j.as_i64().ok_or_else(|| JsonError(format!(
                    concat!("expected ", stringify!($t), ", got {}"), j)))?;
                <$t>::try_from(v).map_err(|_| JsonError(format!(
                    concat!("value {} out of range for ", stringify!($t)), v)))
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        match i128::try_from(*self) {
            Ok(i) => Json::Int(i),
            // Above i128::MAX the textual integer would not re-parse as
            // `Int`; degrade to the nearest f64 like JavaScript would.
            Err(_) => Json::Num(*self as f64),
        }
    }
}

impl FromJson for u128 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Int(i) if *i >= 0 => Ok(*i as u128),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u128),
            _ => Err(JsonError(format!("expected u128, got {j}"))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64().map(|v| v as f32).ok_or_else(|| JsonError(format!("expected number, got {j}")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64().ok_or_else(|| JsonError(format!("expected number, got {j}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if j.is_null() {
            Ok(None)
        } else {
            T::from_json(j).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()
            .ok_or_else(|| JsonError(format!("expected array, got {j}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_obj()
            .ok_or_else(|| JsonError(format!("expected object, got {j}")))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // Sort for deterministic output.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(keys.into_iter().map(|k| (k.clone(), self[k].to_json())).collect())
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_obj()
            .ok_or_else(|| JsonError(format!("expected object, got {j}")))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

macro_rules! impl_json_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:literal;)*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let a = j.as_arr().ok_or_else(|| JsonError(format!("expected array, got {j}")))?;
                if a.len() != $len {
                    return Err(JsonError(format!("expected {}-tuple, got {} items", $len, a.len())));
                }
                Ok(($($name::from_json(&a[$idx])?,)+))
            }
        }
    )*};
}

impl_json_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// ```ignore
/// struct P { x: f64, label: String }
/// json_struct!(P { x, label });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field)), )*
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $( $field: $crate::json::from_field(j, stringify!($field))?, )*
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum whose variants are unit
/// or struct-like, using serde's externally-tagged convention: unit
/// variants serialize as `"Name"`, data variants as `{"Name": {fields}}`.
///
/// ```ignore
/// enum E { A, B { x: u32 } }
/// json_enum!(E { A, B { x } });
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $( $variant:ident $( { $($f:ident),* $(,)? } )? ),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(
                        $crate::json_enum!(@pat $ty, $variant $( { $($f),* } )?) =>
                            $crate::json_enum!(@ser $variant $( { $($f),* } )?),
                    )*
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match j {
                    $crate::json::Json::Str(s) => {
                        let tag = s.as_str();
                        $( $crate::json_enum!(@unit_try tag, $ty, $variant $( { $($f),* } )?); )*
                        Err($crate::json::JsonError(format!(
                            concat!("unknown ", stringify!($ty), " variant '{}'"), tag)))
                    }
                    $crate::json::Json::Obj(pairs) if pairs.len() == 1 => {
                        let (tag, inner) = &pairs[0];
                        let tag = tag.as_str();
                        $( $crate::json_enum!(@data_try tag, inner, $ty, $variant $( { $($f),* } )?); )*
                        Err($crate::json::JsonError(format!(
                            concat!("unknown ", stringify!($ty), " variant '{}'"), tag)))
                    }
                    _ => Err($crate::json::JsonError(format!(
                        concat!("expected ", stringify!($ty), " variant, got {}"), j))),
                }
            }
        }
    };
    (@pat $ty:ident, $variant:ident) => { $ty::$variant };
    (@pat $ty:ident, $variant:ident { $($f:ident),* }) => { $ty::$variant { $($f),* } };
    (@ser $variant:ident) => {
        $crate::json::Json::Str(stringify!($variant).to_string())
    };
    (@ser $variant:ident { $($f:ident),* }) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::Json::Obj(vec![
                $( (stringify!($f).to_string(), $crate::json::ToJson::to_json($f)), )*
            ]),
        )])
    };
    (@unit_try $tag:ident, $ty:ident, $variant:ident) => {
        if $tag == stringify!($variant) {
            return Ok($ty::$variant);
        }
    };
    (@unit_try $tag:ident, $ty:ident, $variant:ident { $($f:ident),* }) => {};
    (@data_try $tag:ident, $inner:ident, $ty:ident, $variant:ident) => {};
    (@data_try $tag:ident, $inner:ident, $ty:ident, $variant:ident { $($f:ident),* }) => {
        if $tag == stringify!($variant) {
            return Ok($ty::$variant {
                $( $f: $crate::json::from_field($inner, stringify!($f))?, )*
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
        assert_eq!(Json::parse(" 3 ").unwrap().to_string(), "3");
    }

    #[test]
    fn round_trip_nested_value() {
        let v = Json::obj([
            ("name", Json::Str("nautilus \"repro\"\n".into())),
            ("pi", Json::Num(3.25)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            (
                "nested",
                Json::obj([("k", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.0)]))]),
            ),
        ]);
        let compact = v.to_string();
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        let v = Json::parse(r#""a\u00e9b\ud83d\ude00c""#).unwrap();
        assert_eq!(v, Json::Str("aéb😀c".into()));
        // Raw multibyte chars pass through and re-escape losslessly.
        let s = Json::Str("héllo 🦀 \t".into());
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
        assert!(Json::parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"\\x\"", "[] []", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        // Above 2^53 an f64 cannot hold every integer; hashes/signatures
        // must survive serialization bit-for-bit.
        for x in [u64::MAX, u64::MAX - 1, (1u64 << 53) + 1, 4_115_586_522_441_378_690] {
            let bytes = to_vec(&x);
            let back: u64 = from_slice(&bytes).unwrap();
            assert_eq!(back, x);
        }
        for x in [i64::MIN, i64::MIN + 1, -(1i64 << 53) - 1] {
            let bytes = to_vec(&x);
            let back: i64 = from_slice(&bytes).unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn float_round_trip_precision() {
        for x in [0.1f64, 1e-9, 123456.789, f64::MAX / 1e10, -0.0] {
            let j = Json::parse(&Json::Num(x).to_string()).unwrap();
            assert_eq!(j.as_f64().unwrap(), x);
        }
    }

    #[test]
    fn struct_and_enum_macros() {
        #[derive(Debug, PartialEq)]
        struct P {
            x: f64,
            name: String,
            tags: Vec<u32>,
            opt: Option<bool>,
        }
        json_struct!(P { x, name, tags, opt });

        #[derive(Debug, PartialEq)]
        enum E {
            Plain,
            Data { a: usize, b: String },
        }
        json_enum!(E { Plain, Data { a, b } });

        let p = P { x: 1.5, name: "n".into(), tags: vec![1, 2], opt: None };
        let back: P = from_str(&p.to_json().to_string()).unwrap();
        assert_eq!(back, p);

        let e = E::Data { a: 3, b: "x".into() };
        assert_eq!(e.to_json().to_string(), r#"{"Data":{"a":3,"b":"x"}}"#);
        let back: E = from_str(&e.to_json().to_string()).unwrap();
        assert_eq!(back, e);
        assert_eq!(from_str::<E>(r#""Plain""#).unwrap(), E::Plain);
        assert!(from_str::<E>(r#""Nope""#).is_err());
    }

    #[test]
    fn missing_option_field_reads_as_none() {
        #[derive(Debug, PartialEq)]
        struct S {
            req: u32,
            opt: Option<u32>,
        }
        json_struct!(S { req, opt });
        let s: S = from_str(r#"{"req": 7}"#).unwrap();
        assert_eq!(s, S { req: 7, opt: None });
        assert!(from_str::<S>(r#"{"opt": 1}"#).is_err());
    }

    #[test]
    fn maps_and_tuples() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), vec![(1usize, true), (2, false)]);
        let j = m.to_json();
        let back: BTreeMap<String, Vec<(usize, bool)>> = FromJson::from_json(&j).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn integer_range_checks() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<i64>("1.5").is_err());
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    /// Deeply nested input from an untrusted peer must return a parse
    /// error, not blow the stack. Depth at the limit still parses; one
    /// past it fails cleanly, for arrays, objects, and mixtures.
    #[test]
    fn recursion_depth_is_limited() {
        let nest = |open: &str, close: &str, n: usize| {
            format!("{}{}{}", open.repeat(n), "null", close.repeat(n))
        };
        let at_limit = nest("[", "]", MAX_PARSE_DEPTH);
        assert!(Json::parse(&at_limit).is_ok());
        let over = nest("[", "]", MAX_PARSE_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.0.contains("nesting"), "unexpected error: {err}");
        // Far past the limit (would overflow the stack without the guard).
        let way_over = nest("[", "]", 200_000);
        assert!(Json::parse(&way_over).is_err());
        let obj_over =
            format!("{}null{}", r#"{"k":"#.repeat(MAX_PARSE_DEPTH + 1), "}".repeat(MAX_PARSE_DEPTH + 1));
        assert!(Json::parse(&obj_over).is_err());
        let mixed = format!("{}1{}", r#"[{"k":"#.repeat(80), "}]".repeat(80));
        assert!(Json::parse(&mixed).is_err());
        // Siblings at the same depth don't accumulate: a wide shallow
        // document parses fine.
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }
}
