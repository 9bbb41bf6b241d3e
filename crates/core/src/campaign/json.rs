//! Minimal JSON tree, parser and writer used to (de)serialise
//! [`crate::campaign::CampaignSpec`], plus the [`CampaignOutcome`] /
//! [`CampaignReport`] codecs behind checkpoint files and mergeable reports.
//!
//! The workspace builds offline with a stubbed `serde` (see
//! `crates/vendor/README.md`), so the campaign layer carries its own small
//! codec instead of a serde data format. Only the JSON subset campaign specs
//! need is implemented: objects, arrays, strings (with the standard escape
//! sequences), finite numbers, booleans and `null`. Parsing runs in linear
//! time and nests at most 128 arrays/objects deep, so hostile input (the
//! campaign service parses every request body) gets an error instead of a
//! quadratic scan or a stack overflow.
//!
//! Every campaign value is written and read through one crate-internal pair
//! of traits, `ToJson` and `FromJson`: numbers, units, labelled kinds,
//! guards, backends, spreads, points and outcomes. The axis table calls them
//! for spec lists and point coordinates.
//!
//! Floating-point values survive the round trip **bit for bit**: numbers are
//! rendered with Rust's shortest-round-trip formatting, so a
//! [`CampaignReport`] recovered from JSON produces byte-identical CSV — the
//! property sharded/resumed campaigns rely on.

use std::fmt;

use super::{
    CampaignError, CampaignEvent, CampaignOutcome, CampaignReport, CouplingSpec, PointKey,
};
use crate::pattern::AttackPattern;
use rram_crossbar::{BackendKind, WiringParasitics, WriteScheme};
use rram_defense::{DefenseOutcome, GuardSpec};
use rram_units::{Joules, Kelvin, Ohms, Seconds, Volts};
use rram_variability::{Distribution, ParamField, ParamSpread};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. Campaign documents
/// nest a handful of levels; the bound keeps the recursive descent far from
/// the stack limit of any thread (RFC 8259 §9 lets parsers set one).
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a JSON document (exactly one value plus whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input, trailing garbage or
    /// nesting deeper than 128 arrays/objects.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }

    /// Compact single-line rendering (no whitespace) — the form checkpoint
    /// files store, one outcome per line.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Renders into `out`: compact without an `indent`, else pretty-printed
    /// at that nesting depth.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => push_number(out, *n),
            Json::String(s) => push_string(out, s),
            Json::Array(values) => {
                // Pretty-printed arrays of scalars stay on one line.
                let nested = values
                    .iter()
                    .any(|v| matches!(v, Json::Object(_) | Json::Array(_)));
                let items = values.iter().map(|value| (None, value));
                render_items(out, ['[', ']'], items, indent, nested);
            }
            Json::Object(entries) => {
                let items = entries
                    .iter()
                    .map(|(key, value)| (Some(key.as_str()), value));
                render_items(out, ['{', '}'], items, indent, true);
            }
        }
    }
}

/// Renders a container's `(key, value)` items between `brackets`. Pretty
/// output (an `indent`) puts each item on its own line, two spaces deeper,
/// when `multiline`, and separates inline items with `", "`.
fn render_items<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: Option<usize>,
    multiline: bool,
) {
    let lines = indent.filter(|_| multiline);
    out.push(open);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push_str(if indent.is_some() && lines.is_none() {
                ", "
            } else {
                ","
            });
        }
        empty = false;
        if let Some(depth) = lines {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            push_string(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.render(out, lines.map(|depth| depth + 1).or(indent));
    }
    if let (Some(depth), false) = (lines, empty) {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Renders a number with shortest-round-trip precision (integers without a
/// fractional part, everything else via `f64`'s exact `Display`). Negative
/// zero keeps its sign bit; non-finite values (which JSON cannot express
/// and [`Json::parse`] rejects) render as `null` so they surface as an
/// explicit type error on re-parse instead of producing invalid JSON.
fn push_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Renders a string with the standard JSON escapes.
fn push_string(out: &mut String, s: &str) {
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

/// Pretty-printed rendering (two-space indent, scalar arrays inline).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        f.write_str(&out)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Parses one array or object with `parse`, failing instead when
    /// [`MAX_DEPTH`] containers are already open.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Number)
            .ok_or_else(|| self.error(format!("invalid number {text:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice. Both delimiters are ASCII, so the run
            // ends on a character boundary of the (already valid UTF-8)
            // input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash.
                Some(_) => {
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
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // UTF-16 surrogate halves are rejected rather than
                            // paired; the campaign codec never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(values));
        }
        loop {
            self.skip_whitespace();
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(values));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

/// Renders a campaign value as JSON. The axis table writes spec lists and
/// point coordinates through it.
pub(crate) trait ToJson {
    fn to_json(&self) -> Json;
}

/// Parses a value [`ToJson`] wrote.
pub(crate) trait FromJson: Sized {
    fn from_json(value: &Json) -> Result<Self, CampaignError>;

    /// The value an absent key reads as: none, except for options.
    fn absent() -> Option<Self> {
        None
    }
}

fn expected(what: &str) -> CampaignError {
    CampaignError::Json(format!("expected {what}"))
}

/// Parses `value` as the value of `key`, naming the key in any error.
pub(crate) fn parse<T: FromJson>(key: &str, value: &Json) -> Result<T, CampaignError> {
    T::from_json(value).map_err(|e| match e {
        CampaignError::Json(message) => CampaignError::Json(format!("key {key:?}: {message}")),
        other => other,
    })
}

/// Parses `object[key]`; an absent key takes `default`, or fails without
/// one.
pub(crate) fn field_or<T: FromJson>(
    object: &Json,
    key: &str,
    default: Option<T>,
) -> Result<T, CampaignError> {
    match object.get(key) {
        Some(value) => parse(key, value),
        None => default.ok_or_else(|| CampaignError::Json(format!("key {key:?} is missing"))),
    }
}

/// Parses `object[key]`, which only an optional field may leave out.
pub(crate) fn field<T: FromJson>(object: &Json, key: &str) -> Result<T, CampaignError> {
    field_or(object, key, T::absent())
}

/// A JSON object with the given entries, in order.
pub(crate) fn object<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Object(entries.map(|(key, value)| (key.into(), value)).into())
}

/// Scalar codecs: how a value is written, how it is read back (`None` when
/// the JSON value does not fit) and what a bad value was expected to be.
macro_rules! scalar_codec {
    ($($ty:ty: |$value:ident| $write:expr, |$json:ident| $read:expr, $expected:literal;)+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let $value = self;
                $write
            }
        }

        impl FromJson for $ty {
            fn from_json($json: &Json) -> Result<Self, CampaignError> {
                $read.ok_or_else(|| expected($expected))
            }
        }
    )+};
}

scalar_codec! {
    f64: |x| Json::Number(*x), |json| json.as_f64(), "a number";
    u64: |n| Json::Number(*n as f64), |json| json.as_u64(), "a non-negative integer";
    usize: |n| Json::Number(*n as f64), |json| json.as_u64().map(|n| n as usize),
        "a non-negative integer";
    u32: |n| Json::Number(f64::from(*n)), |json| json.as_u64().and_then(|n| u32::try_from(n).ok()),
        "an integer fitting in 32 bits";
    bool: |b| Json::Bool(*b), |json| json.as_bool(), "a boolean";
    String: |text| Json::String(text.clone()), |json| json.as_str().map(str::to_string),
        "a string";
    Volts: |v| Json::Number(v.0), |json| json.as_f64().map(Volts), "a number";
    Seconds: |s| Json::Number(s.0), |json| json.as_f64().map(Seconds), "a number";
    Kelvin: |k| Json::Number(k.0), |json| json.as_f64().map(Kelvin), "a number";
    Joules: |j| Json::Number(j.0), |json| json.as_f64().map(Joules), "a number";
}

/// Labelled kinds are their label.
macro_rules! label_codec {
    ($($kind:ty),+) => {$(
        impl ToJson for $kind {
            fn to_json(&self) -> Json {
                Json::String(self.label().into())
            }
        }

        impl FromJson for $kind {
            fn from_json(value: &Json) -> Result<Self, CampaignError> {
                String::from_json(value)?.parse().map_err(CampaignError::Json)
            }
        }
    )+};
}

label_codec!(AttackPattern, WriteScheme);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        value
            .as_array()
            .ok_or_else(|| expected("an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

/// `null` or absent is `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        match value {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// An array size: `[rows, cols]`.
impl ToJson for (usize, usize) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl FromJson for (usize, usize) {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        match value.as_array() {
            Some([rows, cols]) => Ok((usize::from_json(rows)?, usize::from_json(cols)?)),
            _ => Err(expected("a [rows, cols] pair")),
        }
    }
}

/// The undefended baseline is the plain string `"none"`; real guards are
/// objects carrying the kind tag and their exact operating point:
/// `{"kind": "counter", "threshold": 64, "window_s": 1.0}`,
/// `{"kind": "thermal", "threshold_k": 20.0, "cooldown_s": 1e-6}`,
/// `{"kind": "scrub", "period_s": 5e-6}`.
impl ToJson for GuardSpec {
    fn to_json(&self) -> Json {
        match *self {
            GuardSpec::None => Json::String("none".into()),
            GuardSpec::WriteCounter { threshold, window } => object([
                ("kind", Json::String("counter".into())),
                ("threshold", threshold.to_json()),
                ("window_s", window.to_json()),
            ]),
            GuardSpec::ThermalSensor {
                threshold,
                cooldown,
            } => object([
                ("kind", Json::String("thermal".into())),
                ("threshold_k", threshold.to_json()),
                ("cooldown_s", cooldown.to_json()),
            ]),
            GuardSpec::Scrubbing { period } => object([
                ("kind", Json::String("scrub".into())),
                ("period_s", period.to_json()),
            ]),
        }
    }
}

impl FromJson for GuardSpec {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        let bad = |message: &str| CampaignError::Json(format!("invalid guard: {message}"));
        if let Some(label) = value.as_str() {
            return match label {
                "none" => Ok(GuardSpec::None),
                other => Err(bad(&format!(
                    "unknown guard label {other:?} (only \"none\" is a bare label; \
                     real guards are objects with a \"kind\")"
                ))),
            };
        }
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("guard entries must be \"none\" or an object with a \"kind\""))?;
        match kind {
            "counter" => Ok(GuardSpec::WriteCounter {
                threshold: field(value, "threshold")?,
                window: field(value, "window_s")?,
            }),
            "thermal" => Ok(GuardSpec::ThermalSensor {
                threshold: field(value, "threshold_k")?,
                cooldown: field(value, "cooldown_s")?,
            }),
            "scrub" => Ok(GuardSpec::Scrubbing {
                period: field(value, "period_s")?,
            }),
            other => Err(bad(&format!("unknown guard kind {other:?}"))),
        }
    }
}

/// `"pulse"`, `"batched"`, `"detailed"` (default parasitics), or an object
/// carrying non-default wiring parasitics so the archived spec reproduces
/// the same physics.
impl ToJson for BackendKind {
    fn to_json(&self) -> Json {
        match self {
            BackendKind::Detailed(parasitics) if *parasitics != WiringParasitics::default() => {
                object([
                    ("kind", Json::String("detailed".into())),
                    (
                        "segment_ohms",
                        Json::Number(parasitics.segment_resistance.0),
                    ),
                    ("driver_ohms", Json::Number(parasitics.driver_resistance.0)),
                ])
            }
            backend => Json::String(backend.label().into()),
        }
    }
}

impl FromJson for BackendKind {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        if let Some(label) = value.as_str() {
            if label == "surrogate" {
                return Err(CampaignError::Json(
                    "the surrogate backend was removed; use \"batched\"".into(),
                ));
            }
            return label.parse::<BackendKind>().map_err(CampaignError::Json);
        }
        let kind = value.get("kind").and_then(Json::as_str).ok_or_else(|| {
            CampaignError::Json(
                r#"backend entries must be a label or an object with a "kind""#.into(),
            )
        })?;
        if kind != "detailed" {
            return Err(CampaignError::Json(format!(
                "only the detailed backend takes parameters, got kind {kind:?}"
            )));
        }
        let defaults = WiringParasitics::default();
        let ohms = |name: &str, fallback: Ohms| -> Result<Ohms, CampaignError> {
            match value.get(name) {
                None => Ok(fallback),
                Some(v) => v.as_f64().map(Ohms).ok_or_else(|| {
                    CampaignError::Json(format!("backend field {name:?} must be a number"))
                }),
            }
        };
        Ok(BackendKind::Detailed(WiringParasitics {
            segment_resistance: ohms("segment_ohms", defaults.segment_resistance)?,
            driver_resistance: ohms("driver_ohms", defaults.driver_resistance)?,
        }))
    }
}

impl ToJson for CouplingSpec {
    fn to_json(&self) -> Json {
        let (kind, key, value) = match *self {
            CouplingSpec::Uniform { nearest } => ("uniform", "nearest", nearest),
            CouplingSpec::Fem { voxel_nm } => ("fem", "voxel_nm", voxel_nm),
        };
        object([
            ("kind", Json::String(kind.into())),
            (key, Json::Number(value)),
        ])
    }
}

impl FromJson for CouplingSpec {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        match field::<String>(value, "kind")?.as_str() {
            "uniform" => Ok(CouplingSpec::Uniform {
                nearest: field(value, "nearest")?,
            }),
            "fem" => Ok(CouplingSpec::Fem {
                voxel_nm: field(value, "voxel_nm")?,
            }),
            other => Err(CampaignError::Json(format!(
                "unknown coupling kind {other:?}"
            ))),
        }
    }
}

/// One device-parameter spread: the field label, the distribution kind
/// and its parameters, plus any truncation bounds. An omitted
/// `mean`/`median` means "centred on the nominal value".
impl ToJson for ParamSpread {
    fn to_json(&self) -> Json {
        let mut entries = vec![("field", Json::String(self.field.label().into()))];
        match self.distribution {
            Distribution::Normal { mean, sigma } => {
                entries.push(("kind", Json::String("normal".into())));
                entries.extend(mean.map(|mean| ("mean", mean.to_json())));
                entries.push(("sigma", sigma.to_json()));
            }
            Distribution::LogNormal { median, sigma } => {
                entries.push(("kind", Json::String("lognormal".into())));
                entries.extend(median.map(|median| ("median", median.to_json())));
                entries.push(("sigma", sigma.to_json()));
            }
            Distribution::Uniform { low, high } => {
                entries.push(("kind", Json::String("uniform".into())));
                entries.push(("low", low.to_json()));
                entries.push(("high", high.to_json()));
            }
        }
        entries.extend(self.truncate_low.map(|low| ("truncate_low", low.to_json())));
        entries.extend(
            self.truncate_high
                .map(|high| ("truncate_high", high.to_json())),
        );
        Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl FromJson for ParamSpread {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        let field_name: ParamField = field::<String>(value, "field")?
            .parse()
            .map_err(CampaignError::Json)?;
        let distribution = match field::<String>(value, "kind")?.as_str() {
            "normal" => Distribution::Normal {
                mean: field(value, "mean")?,
                sigma: field(value, "sigma")?,
            },
            "lognormal" => Distribution::LogNormal {
                median: field(value, "median")?,
                sigma: field(value, "sigma")?,
            },
            "uniform" => Distribution::Uniform {
                low: field(value, "low")?,
                high: field(value, "high")?,
            },
            other => {
                return Err(CampaignError::Json(format!(
                    "invalid spread: unknown distribution kind {other:?}"
                )))
            }
        };
        Ok(ParamSpread {
            field: field_name,
            distribution,
            truncate_low: field(value, "truncate_low")?,
            truncate_high: field(value, "truncate_high")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Campaign outcome / report codecs
// ---------------------------------------------------------------------------

/// The fingerprint is written as a hex string: a JSON number (f64) cannot
/// represent all 64 bits exactly.
impl ToJson for PointKey {
    fn to_json(&self) -> Json {
        object([
            ("index", self.index.to_json()),
            ("id", Json::String(format!("{:016x}", self.id))),
        ])
    }
}

impl FromJson for PointKey {
    fn from_json(value: &Json) -> Result<Self, CampaignError> {
        Ok(PointKey {
            index: field(value, "index")?,
            id: u64::from_str_radix(&field::<String>(value, "id")?, 16).map_err(|_| {
                CampaignError::Json("key \"id\": expected a 64-bit hex fingerprint".into())
            })?,
        })
    }
}

/// Records: every field under its key, in order.
macro_rules! record_codec {
    ($record:ident { $($field:ident: $key:literal,)+ }) => {
        impl ToJson for $record {
            fn to_json(&self) -> Json {
                object([$(($key, self.$field.to_json())),+])
            }
        }

        impl FromJson for $record {
            fn from_json(value: &Json) -> Result<Self, CampaignError> {
                Ok($record { $($field: field(value, $key)?),+ })
            }
        }
    };
}

record_codec!(DefenseOutcome {
    blocked: "blocked",
    detections: "detections",
    pulses_to_detection: "pulses_to_detection",
    refreshes: "refreshes",
    throttle_time: "throttle_time_s",
    benign_writes: "benign_writes",
    false_triggers: "false_triggers",
    energy_overhead: "energy_overhead_j",
    latency_overhead: "latency_overhead_s",
    overhead_fraction: "overhead_fraction",
});

/// The canonical (report) form: every *result* field, no observability
/// metadata. Report JSON stays byte-identical across runs and across the
/// merge/resume/service paths, however long each point happened to take.
fn outcome_to_json(outcome: &CampaignOutcome) -> Json {
    let mut json = object([
        ("key", outcome.key.to_json()),
        ("point", outcome.point.to_json()),
        ("flipped", outcome.flipped.to_json()),
        ("pulses", outcome.pulses.to_json()),
        ("victim_drift", outcome.victim_drift.to_json()),
        ("final_crosstalk_k", outcome.final_crosstalk.to_json()),
        ("sim_time_s", outcome.sim_time.to_json()),
        ("collateral_flips", outcome.collateral_flips.to_json()),
    ]);
    if let (Json::Object(entries), Some(defense)) = (&mut json, &outcome.defense) {
        entries.push(("defense".into(), defense.to_json()));
    }
    json
}

impl CampaignOutcome {
    /// Serialises the outcome as one compact JSON line — the checkpoint
    /// file format ([`super::checkpoint`]). Carries the `wall_ns` duration
    /// when measured; parsers treat it as optional metadata.
    pub fn to_json_line(&self) -> String {
        self.to_json_value().to_compact_string()
    }

    /// Parses an outcome written by [`CampaignOutcome::to_json_line`] (or
    /// embedded in a report's JSON form).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// The outcome as a JSON value — the object embedded in checkpoint
    /// lines and event streams. The campaign service ships these inside
    /// lease grants (resume sets) and result submissions; the `wall_ns`
    /// duration rides along when measured. Report JSON uses the canonical
    /// form without it (see [`CampaignReport::to_json`]).
    pub fn to_json_value(&self) -> Json {
        let mut json = outcome_to_json(self);
        if let (Json::Object(entries), Some(wall_ns)) = (&mut json, self.wall_ns) {
            entries.push(("wall_ns".into(), wall_ns.to_json()));
        }
        json
    }

    /// Parses an outcome from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on a malformed value.
    pub fn from_json_value(value: &Json) -> Result<Self, CampaignError> {
        Ok(CampaignOutcome {
            key: field(value, "key")?,
            point: field(value, "point")?,
            flipped: field(value, "flipped")?,
            pulses: field(value, "pulses")?,
            victim_drift: field(value, "victim_drift")?,
            final_crosstalk: field(value, "final_crosstalk_k")?,
            sim_time: field(value, "sim_time_s")?,
            collateral_flips: field(value, "collateral_flips")?,
            defense: field(value, "defense")?,
            // Absent on every pre-telemetry checkpoint and on report-form
            // outcomes: default to "not measured" instead of failing the
            // parse.
            wall_ns: field(value, "wall_ns")?,
        })
    }
}

impl CampaignEvent {
    /// Serialises the event as one compact JSON line — the campaign
    /// service's wire format for streaming worker results.
    ///
    /// Every float inside a `PointFinished` outcome survives bit for bit
    /// (same shortest-round-trip rendering as checkpoints), so a report
    /// reassembled from streamed events is byte-identical to one computed
    /// locally.
    pub fn to_json_line(&self) -> String {
        self.to_json_value().to_compact_string()
    }

    /// Parses an event written by [`CampaignEvent::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on malformed input or an unknown
    /// event tag.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// The event as a JSON value, for embedding in a larger message.
    pub fn to_json_value(&self) -> Json {
        match self {
            CampaignEvent::Started { total } => object([
                ("event", Json::String("started".into())),
                ("total", total.to_json()),
            ]),
            CampaignEvent::PointFinished(outcome) => object([
                ("event", Json::String("point_finished".into())),
                ("outcome", outcome.to_json_value()),
            ]),
            CampaignEvent::Finished => object([("event", Json::String("finished".into()))]),
        }
    }

    /// Parses an event from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on a malformed value.
    pub fn from_json_value(value: &Json) -> Result<Self, CampaignError> {
        match field::<String>(value, "event")?.as_str() {
            "started" => Ok(CampaignEvent::Started {
                total: field(value, "total")?,
            }),
            "point_finished" => {
                let outcome = value
                    .get("outcome")
                    .ok_or_else(|| CampaignError::Json("key \"outcome\" is missing".into()))?;
                Ok(CampaignEvent::PointFinished(
                    CampaignOutcome::from_json_value(outcome)?,
                ))
            }
            "finished" => Ok(CampaignEvent::Finished),
            other => Err(CampaignError::Json(format!(
                "unknown campaign event {other:?}"
            ))),
        }
    }
}

impl CampaignReport {
    /// Serialises the report as pretty-printed JSON. Every float survives
    /// bit for bit, so a recovered report renders byte-identical CSV.
    pub fn to_json(&self) -> String {
        object([
            ("name", self.name.to_json()),
            (
                "outcomes",
                Json::Array(self.outcomes.iter().map(outcome_to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Parses a report written by [`CampaignReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let json = Json::parse(text)?;
        let outcomes = json
            .get("outcomes")
            .and_then(Json::as_array)
            .ok_or_else(|| CampaignError::Json("key \"outcomes\": expected an array".into()))?
            .iter()
            .map(CampaignOutcome::from_json_value)
            .collect::<Result<_, CampaignError>>()?;
        Ok(CampaignReport {
            name: field(&json, "name")?,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::CampaignPoint;
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Number(-1500.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::String("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"xs": [1, 2, 3], "meta": {"ok": true, "note": null}}"#;
        let json = Json::parse(doc).unwrap();
        let xs: Vec<f64> = json
            .get("xs")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(
            json.get("meta").and_then(|m| m.get("ok")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn render_parse_round_trip() {
        let value = Json::Object(vec![
            ("name".into(), Json::String("smoke \"quoted\"".into())),
            (
                "sizes".into(),
                Json::Array(vec![Json::Number(3.0), Json::Number(5.0)]),
            ),
            (
                "nested".into(),
                Json::Object(vec![("pi".into(), Json::Number(3.25))]),
            ),
            ("empty".into(), Json::Array(vec![])),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in ["{", "[1,", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        // Multi-byte characters and escapes throughout. Copying each plain
        // run whole keeps this linear; re-validating the rest of the input
        // per character would take tens of seconds here.
        let unit = "αβγ δ→ε \"q\" \\ ";
        let text: String = unit.repeat((1 << 20) / unit.len() + 1);
        let value = Json::String(text);
        let rendered = value.to_compact_string();
        assert!(rendered.len() > 1 << 20);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&rendered).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, value);
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for deep in [arrays(100_000), objects(100_000), arrays(MAX_DEPTH + 1)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        for ok in [
            arrays(64),
            objects(64),
            arrays(MAX_DEPTH),
            objects(MAX_DEPTH),
        ] {
            assert!(Json::parse(&ok).is_ok());
        }
        // Depth counts open containers, not how many were seen.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn integer_lookups_validate_the_shape() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn negative_zero_keeps_its_sign_and_non_finite_renders_null() {
        let neg_zero = Json::Number(-0.0).to_compact_string();
        assert_eq!(neg_zero, "-0");
        let reparsed = Json::parse(&neg_zero).unwrap().as_f64().unwrap();
        assert_eq!(reparsed.to_bits(), (-0.0f64).to_bits());

        assert_eq!(Json::Number(f64::NAN).to_compact_string(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_compact_string(), "null");
    }

    #[test]
    fn compact_rendering_round_trips() {
        let value = Json::Object(vec![
            ("a".into(), Json::Array(vec![Json::Number(1.5), Json::Null])),
            ("b \"q\"".into(), Json::Bool(false)),
        ]);
        let compact = value.to_compact_string();
        assert!(!compact.contains('\n'));
        assert!(!compact.contains(' ') || compact.contains("\"b \\\"q\\\"\""));
        assert_eq!(Json::parse(&compact).unwrap(), value);
    }

    fn sample_outcome() -> CampaignOutcome {
        use rram_crossbar::{BackendKind, WiringParasitics};
        use rram_units::Ohms;
        let point = CampaignPoint {
            rows: 5,
            cols: 7,
            pattern: AttackPattern::Quad,
            // 0.1 + 0.2 == 0.30000000000000004: needs full precision.
            amplitude: Volts(0.1 + 0.2),
            pulse_length: Seconds(50.0 * 1e-9),
            duty_cycle: 1.0 / 3.0,
            spacing_nm: 50.0,
            ambient: Kelvin(300.0),
            scheme: WriteScheme::ThirdVoltage,
            guard: GuardSpec::WriteCounter {
                threshold: 64,
                window: Seconds(1.0 / 3.0),
            },
            spread_scale: 0.1 + 0.2,
            backend: BackendKind::Detailed(WiringParasitics {
                segment_resistance: Ohms(123.456),
                driver_resistance: Ohms(789.0),
            }),
            trial: 3,
        };
        CampaignOutcome {
            key: PointKey {
                index: 3,
                id: point.id(),
            },
            point,
            flipped: true,
            pulses: 123_456,
            victim_drift: 1.0 / 3.0,
            final_crosstalk: Kelvin(12.345_678_901_234_567),
            sim_time: Seconds(6.17e-3),
            collateral_flips: 2,
            defense: Some(DefenseOutcome {
                blocked: false,
                detections: 7,
                pulses_to_detection: Some(64),
                refreshes: 5,
                throttle_time: Seconds(2.0 / 3.0 * 1e-6),
                benign_writes: 256,
                false_triggers: 2,
                energy_overhead: Joules(1.0 / 7.0 * 1e-12),
                latency_overhead: Seconds(1.0 / 9.0 * 1e-6),
                overhead_fraction: 1.0 / 11.0,
            }),
            wall_ns: Some(123_456_789),
        }
    }

    #[test]
    fn outcome_json_round_trip_is_bit_exact() {
        let outcome = sample_outcome();
        let line = outcome.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        let restored = CampaignOutcome::from_json(&line).unwrap();
        assert_eq!(restored, outcome);
        assert_eq!(
            restored.point.amplitude.0.to_bits(),
            outcome.point.amplitude.0.to_bits()
        );
        assert_eq!(
            restored.point.pulse_length.0.to_bits(),
            outcome.point.pulse_length.0.to_bits()
        );
        assert_eq!(restored.key.id, outcome.key.id);
    }

    #[test]
    fn records_without_duty_or_trial_parse_with_defaults() {
        // A checkpoint record from before the duty-cycle/trial axes: it
        // must parse (defaults d=0.5, trial 0) so resume can treat it as
        // stale-by-fingerprint instead of erroring out.
        let line = r#"{"key":{"index":0,"id":"00000000000000aa"},
            "point":{"backend":"pulse","rows":5,"cols":5,"pattern":"single",
                     "amplitude_v":1.05,"pulse_length_s":5e-8,"spacing_nm":50,
                     "ambient_k":300,"scheme":"half"},
            "flipped":true,"pulses":10,"victim_drift":0.5,
            "final_crosstalk_k":1.0,"sim_time_s":1e-6,"collateral_flips":0}"#;
        let outcome = CampaignOutcome::from_json(line).unwrap();
        assert_eq!(outcome.point.duty_cycle, 0.5);
        assert_eq!(outcome.point.trial, 0);
        // Pre-defence records default to the undefended baseline.
        assert_eq!(outcome.point.guard, GuardSpec::None);
        assert_eq!(outcome.point.spread_scale, 1.0);
        assert_eq!(outcome.defense, None);
    }

    #[test]
    fn wall_duration_rides_the_wire_but_not_the_report() {
        let outcome = sample_outcome();
        // The checkpoint/wire form carries the duration …
        let line = outcome.to_json_line();
        assert!(line.contains("wall_ns"), "{line}");
        let restored = CampaignOutcome::from_json(&line).unwrap();
        assert_eq!(restored.wall_ns, Some(123_456_789));
        // … the canonical report form does not, so merged/resumed reports
        // stay byte-identical however long each point took.
        let report = CampaignReport {
            name: "timed".into(),
            outcomes: vec![outcome.clone()],
        };
        assert!(!report.to_json().contains("wall_ns"));
        // Equality — and with it merge-conflict detection and resume
        // replay — ignores the duration entirely.
        let mut stripped = outcome.clone();
        stripped.wall_ns = None;
        assert_eq!(stripped, outcome);
        assert_eq!(stripped.key.id, outcome.key.id);
    }

    #[test]
    fn pre_telemetry_checkpoint_lines_parse_without_wall_ns() {
        // A checkpoint written before durations existed has no `wall_ns`
        // key; it must parse (duration unknown) so old shard files resume.
        let mut outcome = sample_outcome();
        outcome.wall_ns = None;
        let line = outcome.to_json_line();
        assert!(!line.contains("wall_ns"), "{line}");
        let restored = CampaignOutcome::from_json(&line).unwrap();
        assert_eq!(restored.wall_ns, None);
        assert_eq!(restored, outcome);
    }

    #[test]
    fn unguarded_outcomes_omit_the_defense_key() {
        let mut outcome = sample_outcome();
        outcome.point.guard = GuardSpec::None;
        outcome.defense = None;
        let line = outcome.to_json_line();
        assert!(!line.contains("defense"), "{line}");
        assert_eq!(CampaignOutcome::from_json(&line).unwrap(), outcome);
    }

    #[test]
    fn event_json_round_trip_is_bit_exact() {
        let events = vec![
            CampaignEvent::Started { total: 42 },
            CampaignEvent::PointFinished(sample_outcome()),
            CampaignEvent::Finished,
        ];
        for event in events {
            let line = event.to_json_line();
            assert!(!line.contains('\n'), "{line}");
            let restored = CampaignEvent::from_json(&line).unwrap();
            assert_eq!(restored, event);
            // A second trip through the codec must be byte-stable.
            assert_eq!(restored.to_json_line(), line);
        }
    }

    #[test]
    fn event_point_finished_preserves_float_bits() {
        let outcome = sample_outcome();
        let event = CampaignEvent::PointFinished(outcome.clone());
        let CampaignEvent::PointFinished(restored) =
            CampaignEvent::from_json(&event.to_json_line()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(
            restored.point.amplitude.0.to_bits(),
            outcome.point.amplitude.0.to_bits()
        );
        assert_eq!(
            restored.victim_drift.to_bits(),
            outcome.victim_drift.to_bits()
        );
        assert_eq!(restored.key.id, outcome.key.id);
    }

    #[test]
    fn event_rejects_unknown_tag() {
        let error = CampaignEvent::from_json(r#"{"event": "exploded"}"#).unwrap_err();
        assert!(error.to_string().contains("unknown campaign event"));
        assert!(CampaignEvent::from_json(r#"{"total": 3}"#).is_err());
    }

    #[test]
    fn guarded_outcome_defense_round_trips_bit_exact() {
        let outcome = sample_outcome();
        let restored = CampaignOutcome::from_json(&outcome.to_json_line()).unwrap();
        let (a, b) = (restored.defense.unwrap(), outcome.defense.unwrap());
        assert_eq!(a, b);
        assert_eq!(a.throttle_time.0.to_bits(), b.throttle_time.0.to_bits());
        assert_eq!(a.overhead_fraction.to_bits(), b.overhead_fraction.to_bits());
        assert_eq!(
            restored.point.spread_scale.to_bits(),
            outcome.point.spread_scale.to_bits()
        );
        assert_eq!(restored.point.guard, outcome.point.guard);
    }

    #[test]
    fn report_json_round_trips_and_rejects_malformed_input() {
        let mut second = sample_outcome();
        second.key.index = 4;
        second.flipped = false;
        second.pulses = 0;
        let report = CampaignReport {
            name: "round trip".into(),
            outcomes: vec![sample_outcome(), second],
        };
        let restored = CampaignReport::from_json(&report.to_json()).unwrap();
        assert_eq!(restored, report);

        assert!(matches!(
            CampaignReport::from_json(r#"{"name": "x"}"#),
            Err(CampaignError::Json(_))
        ));
        assert!(matches!(
            CampaignOutcome::from_json(r#"{"key": {"index": 0, "id": "zz"}}"#),
            Err(CampaignError::Json(_))
        ));
    }
}
