//! The wire format: a hand-rolled JSON value type plus explicit
//! mappings for [`ExplainRequest`], [`ExplainResponse`] and
//! [`LewisError`].
//!
//! The container has no crates.io access, so there is no serde; this
//! module is the serving subsystem's entire serialization layer. Design
//! points:
//!
//! * [`Json`] objects keep insertion order (`Vec` of pairs, not a map),
//!   so serialization is deterministic — equal values produce equal
//!   bytes, which the integration tests lean on;
//! * floats are serialized with Rust's shortest-round-trip `Display`
//!   and parsed with `str::parse::<f64>`, so every finite `f64`
//!   survives the wire **bit for bit** (property-tested); non-finite
//!   floats have no JSON spelling and serialize as `null`;
//! * attributes and dictionary-coded values travel as integer codes
//!   (`AttrId`/[`tabular::Value`]), keeping the codec independent of
//!   any schema; `GET /v1/engines` publishes each engine's schema so
//!   clients can map names to codes;
//! * decoding failures name the JSON path that failed
//!   (`"recourse.opts.alpha: expected a number"`), because "bad
//!   request" without a location is useless over a network.
//!
//! ## Request bodies
//!
//! ```json
//! {"kind": "global"}
//! {"kind": "contextual_global", "context": [[0, 1]]}
//! {"kind": "contextual", "attr": 2, "context": [[0, 1]]}
//! {"kind": "local", "row": [0, 1, 2, 0, 1, 5]}
//! {"kind": "recourse", "row": [0, 1, 2, 0, 1, 5], "actionable": [2, 3],
//!  "opts": {"alpha": 0.75, "cost": "ordinal_linear"}}
//! ```
//!
//! A context is an array of `[attribute, value]` code pairs. Recourse
//! `opts` (and each of its fields) may be omitted; defaults are
//! [`RecourseOptions::default`]. The cost model is `"unit"`,
//! `"ordinal_linear"`, `"ordinal_quadratic"` or
//! `{"weighted": [[attr, weight], ...]}`.

use lewis_core::explain::{AttributeScores, LocalContribution};
use lewis_core::recourse::Action;
use lewis_core::{
    ContextualExplanation, CostModel, ExplainRequest, ExplainResponse, GlobalExplanation,
    LewisError, LocalExplanation, Recourse, RecourseOptions, Scores,
};
use std::fmt;
use tabular::{AttrId, Context, Value};

/// Nesting depth limit for the parser: the server feeds it untrusted
/// bodies, and unbounded recursion would let `[[[[…` overflow the stack.
const MAX_DEPTH: usize = 96;

/// A JSON value. Object members keep insertion order so serialization
/// is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A located decode error: which JSON path failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path to the offending value (empty for the root).
    pub path: String,
    /// What went wrong there.
    pub message: String,
}

impl WireError {
    fn new(path: &str, message: impl Into<String>) -> Self {
        WireError {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for WireError {}

impl Json {
    /// Build an object from key/value pairs (insertion order kept).
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number from anything convertible to `f64` losslessly enough
    /// for wire use (`u32` codes, `usize` counts below 2^53, `f64`).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (exactly one value, whitespace tolerated).
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the JSON value"));
        }
        Ok(v)
    }
}

/// Rust's `Display` for finite floats is the shortest decimal that
/// round-trips to the identical bits; JSON has no spelling for the rest.
fn write_f64(n: f64, out: &mut String) {
    if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> WireError {
        WireError {
            path: format!("byte {}", self.pos),
            message: message.into(),
        }
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

    fn expect_byte(&mut self, b: u8) -> Result<(), WireError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
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
                        _ => return Err(self.error("expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.error("expected ',' or '}' in object")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: require the low half
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // consume one UTF-8 scalar; the input arrived as a
                    // &str so this cannot fail today, but a parser over
                    // untrusted bytes never gets to assume that
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected a JSON value"));
        }
        // JSON forbids leading zeros like 0123
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(self.error("leading zero in number"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-ASCII byte in number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.error(format!("unparseable number {text:?}")))?;
        // str::parse maps overflowing literals (1e400) to ±infinity;
        // admitting those would break the finite-floats invariant the
        // whole codec is built on (infinities serialize as null).
        if !n.is_finite() {
            return Err(self.error(format!("number {text:?} overflows an f64")));
        }
        Ok(Json::Num(n))
    }
}

// ---------------------------------------------------------------------
// Typed decode helpers: every failure names the JSON path it happened at.
// ---------------------------------------------------------------------

fn need<'j>(j: &'j Json, key: &str, path: &str) -> Result<&'j Json, WireError> {
    j.get(key)
        .ok_or_else(|| WireError::new(path, format!("missing field {key:?}")))
}

fn get_f64(j: &Json, path: &str) -> Result<f64, WireError> {
    j.as_f64()
        .ok_or_else(|| WireError::new(path, "expected a number"))
}

fn get_code(j: &Json, path: &str) -> Result<u32, WireError> {
    code(j).map_err(|message| WireError::new(path, message))
}

/// A dictionary code, or the failure message without its path — so
/// hot decoders build the path string only when they report an error.
fn code(j: &Json) -> Result<u32, String> {
    let n = j.as_f64().ok_or("expected a number")?;
    if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
        return Err(format!("expected a u32 code, got {n}"));
    }
    Ok(n as u32)
}

/// A decode error at element `i` of the array at `path`.
fn at_index(path: &str, i: usize, message: impl Into<String>) -> WireError {
    WireError::new(&format!("{path}[{i}]"), message)
}

fn get_usize(j: &Json, path: &str) -> Result<usize, WireError> {
    let n = get_f64(j, path)?;
    if n.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&n) {
        return Err(WireError::new(
            path,
            format!("expected a non-negative integer, got {n}"),
        ));
    }
    Ok(n as usize)
}

fn get_arr<'j>(j: &'j Json, path: &str) -> Result<&'j [Json], WireError> {
    j.as_arr()
        .ok_or_else(|| WireError::new(path, "expected an array"))
}

fn get_str<'j>(j: &'j Json, path: &str) -> Result<&'j str, WireError> {
    j.as_str()
        .ok_or_else(|| WireError::new(path, "expected a string"))
}

fn row_to_json(row: &[Value]) -> Json {
    Json::Arr(row.iter().map(|&v| Json::num(v)).collect())
}

/// The codes of `items`, or the index and message of the first bad one.
fn codes(items: &[Json]) -> Result<Vec<Value>, (usize, String)> {
    items
        .iter()
        .enumerate()
        .map(|(i, v)| code(v).map_err(|message| (i, message)))
        .collect()
}

fn row_from_json(j: &Json, path: &str) -> Result<Vec<Value>, WireError> {
    codes(get_arr(j, path)?).map_err(|(i, message)| at_index(path, i, message))
}

/// Decode an array of dictionary-coded rows (an append body's `rows`).
pub(crate) fn rows_from_json(j: &Json, path: &str) -> Result<Vec<Vec<Value>>, WireError> {
    get_arr(j, path)?
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let items = row
                .as_arr()
                .ok_or_else(|| at_index(path, i, "expected an array"))?;
            codes(items).map_err(|(k, message)| at_index(&format!("{path}[{i}]"), k, message))
        })
        .collect()
}

fn attrs_from_json(j: &Json, path: &str) -> Result<Vec<AttrId>, WireError> {
    Ok(row_from_json(j, path)?.into_iter().map(AttrId).collect())
}

/// Encode a context as `[[attr, value], ...]` (attribute order — the
/// `Context` itself is sorted, so this is deterministic).
pub fn context_to_json(k: &Context) -> Json {
    Json::Arr(
        k.iter()
            .map(|(a, v)| Json::Arr(vec![Json::num(a.0), Json::num(v)]))
            .collect(),
    )
}

/// Decode a `[[attr, value], ...]` context.
pub fn context_from_json(j: &Json, path: &str) -> Result<Context, WireError> {
    let mut k = Context::empty();
    for (i, pair) in get_arr(j, path)?.iter().enumerate() {
        let (attr, value) = match pair.as_arr() {
            Some([attr, value]) => (attr, value),
            Some(_) => return Err(at_index(path, i, "expected an [attribute, value] pair")),
            None => return Err(at_index(path, i, "expected an array")),
        };
        let get = |v: &Json| code(v).map_err(|message| at_index(path, i, message));
        k.set(AttrId(get(attr)?), get(value)?);
    }
    Ok(k)
}

fn cost_to_json(cost: &CostModel) -> Json {
    match cost {
        CostModel::Unit => Json::str("unit"),
        CostModel::OrdinalLinear => Json::str("ordinal_linear"),
        CostModel::OrdinalQuadratic => Json::str("ordinal_quadratic"),
        CostModel::Weighted(ws) => Json::obj([(
            "weighted",
            Json::Arr(
                ws.iter()
                    .map(|&(a, w)| Json::Arr(vec![Json::num(a.0), Json::Num(w)]))
                    .collect(),
            ),
        )]),
    }
}

fn cost_from_json(j: &Json, path: &str) -> Result<CostModel, WireError> {
    if let Some(name) = j.as_str() {
        return match name {
            "unit" => Ok(CostModel::Unit),
            "ordinal_linear" => Ok(CostModel::OrdinalLinear),
            "ordinal_quadratic" => Ok(CostModel::OrdinalQuadratic),
            other => Err(WireError::new(
                path,
                format!("unknown cost model {other:?}"),
            )),
        };
    }
    let weights = need(j, "weighted", path)?;
    let wpath = format!("{path}.weighted");
    let mut ws = Vec::new();
    for (i, pair) in get_arr(weights, &wpath)?.iter().enumerate() {
        let p = format!("{wpath}[{i}]");
        let pair = get_arr(pair, &p)?;
        if pair.len() != 2 {
            return Err(WireError::new(&p, "expected an [attribute, weight] pair"));
        }
        ws.push((AttrId(get_code(&pair[0], &p)?), get_f64(&pair[1], &p)?));
    }
    Ok(CostModel::Weighted(ws))
}

fn opts_to_json(opts: &RecourseOptions) -> Json {
    Json::obj([
        ("alpha", Json::Num(opts.alpha)),
        ("cost", cost_to_json(&opts.cost)),
        ("min_support", Json::num(opts.min_support as u32)),
        ("max_rejections", Json::num(opts.max_rejections as u32)),
        (
            "escalations",
            Json::Arr(opts.escalations.iter().map(|&e| Json::Num(e)).collect()),
        ),
    ])
}

fn opts_from_json(j: Option<&Json>, path: &str) -> Result<RecourseOptions, WireError> {
    let mut opts = RecourseOptions::default();
    let Some(j) = j else { return Ok(opts) };
    if !matches!(j, Json::Obj(_)) {
        return Err(WireError::new(path, "expected an options object"));
    }
    if let Some(v) = j.get("alpha") {
        opts.alpha = get_f64(v, &format!("{path}.alpha"))?;
    }
    if let Some(v) = j.get("cost") {
        opts.cost = cost_from_json(v, &format!("{path}.cost"))?;
    }
    if let Some(v) = j.get("min_support") {
        opts.min_support = get_usize(v, &format!("{path}.min_support"))?;
    }
    if let Some(v) = j.get("max_rejections") {
        opts.max_rejections = get_usize(v, &format!("{path}.max_rejections"))?;
    }
    if let Some(v) = j.get("escalations") {
        let p = format!("{path}.escalations");
        opts.escalations = get_arr(v, &p)?
            .iter()
            .enumerate()
            .map(|(i, e)| get_f64(e, &format!("{p}[{i}]")))
            .collect::<Result<_, _>>()?;
    }
    Ok(opts)
}

/// Encode a request (inverse of [`request_from_json`]).
pub fn request_to_json(request: &ExplainRequest) -> Json {
    match request {
        ExplainRequest::Global => Json::obj([("kind", Json::str("global"))]),
        ExplainRequest::ContextualGlobal { k } => Json::obj([
            ("kind", Json::str("contextual_global")),
            ("context", context_to_json(k)),
        ]),
        ExplainRequest::Contextual { attr, k } => Json::obj([
            ("kind", Json::str("contextual")),
            ("attr", Json::num(attr.0)),
            ("context", context_to_json(k)),
        ]),
        ExplainRequest::Local { row } => {
            Json::obj([("kind", Json::str("local")), ("row", row_to_json(row))])
        }
        ExplainRequest::Recourse {
            row,
            actionable,
            opts,
        } => Json::obj([
            ("kind", Json::str("recourse")),
            ("row", row_to_json(row)),
            (
                "actionable",
                Json::Arr(actionable.iter().map(|a| Json::num(a.0)).collect()),
            ),
            ("opts", opts_to_json(opts)),
        ]),
    }
}

/// Decode a request (see the module docs for the shape).
pub fn request_from_json(j: &Json) -> Result<ExplainRequest, WireError> {
    let kind = get_str(need(j, "kind", "")?, "kind")?;
    match kind {
        "global" => Ok(ExplainRequest::Global),
        "contextual_global" => Ok(ExplainRequest::ContextualGlobal {
            k: context_from_json(need(j, "context", "")?, "context")?,
        }),
        "contextual" => Ok(ExplainRequest::Contextual {
            attr: AttrId(get_code(need(j, "attr", "")?, "attr")?),
            k: context_from_json(need(j, "context", "")?, "context")?,
        }),
        "local" => Ok(ExplainRequest::Local {
            row: row_from_json(need(j, "row", "")?, "row")?,
        }),
        "recourse" => Ok(ExplainRequest::Recourse {
            row: row_from_json(need(j, "row", "")?, "row")?,
            actionable: attrs_from_json(need(j, "actionable", "")?, "actionable")?,
            opts: opts_from_json(j.get("opts"), "opts")?,
        }),
        other => Err(WireError::new(
            "kind",
            format!("unknown request kind {other:?}"),
        )),
    }
}

fn scores_to_json(s: &Scores) -> Json {
    Json::obj([
        ("necessity", Json::Num(s.necessity)),
        ("sufficiency", Json::Num(s.sufficiency)),
        ("nesuf", Json::Num(s.nesuf)),
    ])
}

fn scores_from_json(j: &Json, path: &str) -> Result<Scores, WireError> {
    Ok(Scores {
        necessity: get_f64(need(j, "necessity", path)?, &format!("{path}.necessity"))?,
        sufficiency: get_f64(
            need(j, "sufficiency", path)?,
            &format!("{path}.sufficiency"),
        )?,
        nesuf: get_f64(need(j, "nesuf", path)?, &format!("{path}.nesuf"))?,
    })
}

fn attribute_scores_to_json(a: &AttributeScores) -> Json {
    Json::obj([
        ("attr", Json::num(a.attr.0)),
        ("name", Json::str(&a.name)),
        ("scores", scores_to_json(&a.scores)),
        (
            "best_pair",
            match a.best_pair {
                Some((hi, lo)) => Json::Arr(vec![Json::num(hi), Json::num(lo)]),
                None => Json::Null,
            },
        ),
    ])
}

fn attribute_scores_from_json(j: &Json, path: &str) -> Result<AttributeScores, WireError> {
    let best_pair = match need(j, "best_pair", path)? {
        Json::Null => None,
        pair => {
            let p = format!("{path}.best_pair");
            let pair = get_arr(pair, &p)?;
            if pair.len() != 2 {
                return Err(WireError::new(&p, "expected a [hi, lo] pair"));
            }
            Some((get_code(&pair[0], &p)?, get_code(&pair[1], &p)?))
        }
    };
    Ok(AttributeScores {
        attr: AttrId(get_code(need(j, "attr", path)?, &format!("{path}.attr"))?),
        name: get_str(need(j, "name", path)?, &format!("{path}.name"))?.to_string(),
        scores: scores_from_json(need(j, "scores", path)?, &format!("{path}.scores"))?,
        best_pair,
    })
}

fn contribution_to_json(c: &LocalContribution) -> Json {
    Json::obj([
        ("attr", Json::num(c.attr.0)),
        ("name", Json::str(&c.name)),
        ("value", Json::num(c.value)),
        ("label", Json::str(&c.label)),
        ("positive", Json::Num(c.positive)),
        ("negative", Json::Num(c.negative)),
    ])
}

fn contribution_from_json(j: &Json, path: &str) -> Result<LocalContribution, WireError> {
    Ok(LocalContribution {
        attr: AttrId(get_code(need(j, "attr", path)?, &format!("{path}.attr"))?),
        name: get_str(need(j, "name", path)?, &format!("{path}.name"))?.to_string(),
        value: get_code(need(j, "value", path)?, &format!("{path}.value"))?,
        label: get_str(need(j, "label", path)?, &format!("{path}.label"))?.to_string(),
        positive: get_f64(need(j, "positive", path)?, &format!("{path}.positive"))?,
        negative: get_f64(need(j, "negative", path)?, &format!("{path}.negative"))?,
    })
}

fn action_to_json(a: &Action) -> Json {
    Json::obj([
        ("attr", Json::num(a.attr.0)),
        ("name", Json::str(&a.name)),
        ("from", Json::num(a.from)),
        ("to", Json::num(a.to)),
        ("from_label", Json::str(&a.from_label)),
        ("to_label", Json::str(&a.to_label)),
        ("cost", Json::Num(a.cost)),
    ])
}

fn action_from_json(j: &Json, path: &str) -> Result<Action, WireError> {
    Ok(Action {
        attr: AttrId(get_code(need(j, "attr", path)?, &format!("{path}.attr"))?),
        name: get_str(need(j, "name", path)?, &format!("{path}.name"))?.to_string(),
        from: get_code(need(j, "from", path)?, &format!("{path}.from"))?,
        to: get_code(need(j, "to", path)?, &format!("{path}.to"))?,
        from_label: get_str(need(j, "from_label", path)?, &format!("{path}.from_label"))?
            .to_string(),
        to_label: get_str(need(j, "to_label", path)?, &format!("{path}.to_label"))?.to_string(),
        cost: get_f64(need(j, "cost", path)?, &format!("{path}.cost"))?,
    })
}

/// Encode a response (inverse of [`response_from_json`]).
pub fn response_to_json(response: &ExplainResponse) -> Json {
    match response {
        ExplainResponse::Global(g) => Json::obj([
            ("kind", Json::str("global")),
            (
                "attributes",
                Json::Arr(g.attributes.iter().map(attribute_scores_to_json).collect()),
            ),
        ]),
        ExplainResponse::Contextual(c) => Json::obj([
            ("kind", Json::str("contextual")),
            ("attr", Json::num(c.attr.0)),
            ("context", context_to_json(&c.context)),
            ("scores", scores_to_json(&c.scores)),
        ]),
        ExplainResponse::Local(l) => Json::obj([
            ("kind", Json::str("local")),
            ("outcome", Json::num(l.outcome)),
            (
                "contributions",
                Json::Arr(l.contributions.iter().map(contribution_to_json).collect()),
            ),
        ]),
        ExplainResponse::Recourse(r) => Json::obj([
            ("kind", Json::str("recourse")),
            (
                "actions",
                Json::Arr(r.actions.iter().map(action_to_json).collect()),
            ),
            ("total_cost", Json::Num(r.total_cost)),
            (
                "verified_sufficiency",
                match r.verified_sufficiency {
                    Some(s) => Json::Num(s),
                    None => Json::Null,
                },
            ),
            ("surrogate_probability", Json::Num(r.surrogate_probability)),
            ("n_constraints", Json::num(r.n_constraints as u32)),
        ]),
    }
}

/// Decode a response (the client half of the codec; the integration
/// tests use it to compare over-the-wire results with in-process ones).
pub fn response_from_json(j: &Json) -> Result<ExplainResponse, WireError> {
    let kind = get_str(need(j, "kind", "")?, "kind")?;
    match kind {
        "global" => {
            let attrs = get_arr(need(j, "attributes", "")?, "attributes")?;
            let attributes = attrs
                .iter()
                .enumerate()
                .map(|(i, a)| attribute_scores_from_json(a, &format!("attributes[{i}]")))
                .collect::<Result<_, _>>()?;
            Ok(ExplainResponse::Global(GlobalExplanation { attributes }))
        }
        "contextual" => Ok(ExplainResponse::Contextual(ContextualExplanation {
            attr: AttrId(get_code(need(j, "attr", "")?, "attr")?),
            context: context_from_json(need(j, "context", "")?, "context")?,
            scores: scores_from_json(need(j, "scores", "")?, "scores")?,
        })),
        "local" => {
            let contributions = get_arr(need(j, "contributions", "")?, "contributions")?
                .iter()
                .enumerate()
                .map(|(i, c)| contribution_from_json(c, &format!("contributions[{i}]")))
                .collect::<Result<_, _>>()?;
            Ok(ExplainResponse::Local(LocalExplanation {
                outcome: get_code(need(j, "outcome", "")?, "outcome")?,
                contributions,
            }))
        }
        "recourse" => {
            let actions = get_arr(need(j, "actions", "")?, "actions")?
                .iter()
                .enumerate()
                .map(|(i, a)| action_from_json(a, &format!("actions[{i}]")))
                .collect::<Result<_, _>>()?;
            Ok(ExplainResponse::Recourse(Recourse {
                actions,
                total_cost: get_f64(need(j, "total_cost", "")?, "total_cost")?,
                verified_sufficiency: match need(j, "verified_sufficiency", "")? {
                    Json::Null => None,
                    v => Some(get_f64(v, "verified_sufficiency")?),
                },
                surrogate_probability: get_f64(
                    need(j, "surrogate_probability", "")?,
                    "surrogate_probability",
                )?,
                n_constraints: get_usize(need(j, "n_constraints", "")?, "n_constraints")?,
            }))
        }
        other => Err(WireError::new(
            "kind",
            format!("unknown response kind {other:?}"),
        )),
    }
}

/// The wire form of a [`LewisError`]: a stable machine code plus the
/// human message. [`RemoteError`] is its client-side decode — the pair
/// round-trips exactly even though the server-side `LewisError`'s
/// wrapped sub-errors (tabular, ml, …) cannot be reconstructed from a
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// Stable error code (`"invalid"`, `"unsupported"`, …).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for RemoteError {}

/// The stable wire code of an error.
pub fn error_code(err: &LewisError) -> &'static str {
    match err {
        LewisError::Tabular(_) => "tabular",
        LewisError::Causal(_) => "causal",
        LewisError::Ml(_) => "ml",
        LewisError::Optim(_) => "optim",
        LewisError::Invalid(_) => "invalid",
        LewisError::Unsupported(_) => "unsupported",
        LewisError::NoRecourse(_) => "no_recourse",
    }
}

/// The HTTP status an error maps to: caller mistakes are 400, queries
/// the data cannot answer are 422, everything else is a 500.
pub fn error_status(err: &LewisError) -> u16 {
    match err {
        LewisError::Invalid(_) | LewisError::Tabular(_) => 400,
        LewisError::Unsupported(_) | LewisError::NoRecourse(_) => 422,
        _ => 500,
    }
}

/// Encode an error as `{"error": {"code": ..., "message": ...}}`.
pub fn error_to_json(err: &LewisError) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::str(error_code(err))),
            ("message", Json::str(err.to_string())),
        ]),
    )])
}

/// Encode an already-decoded [`RemoteError`] (same shape as
/// [`error_to_json`]).
pub fn remote_error_to_json(err: &RemoteError) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::str(&err.code)),
            ("message", Json::str(&err.message)),
        ]),
    )])
}

/// Decode an error body.
pub fn error_from_json(j: &Json) -> Result<RemoteError, WireError> {
    let body = need(j, "error", "")?;
    Ok(RemoteError {
        code: get_str(need(body, "code", "error")?, "error.code")?.to_string(),
        message: get_str(need(body, "message", "error")?, "error.message")?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_structure() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "{\"a\":}",
            "1 2",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "\"unterm",
            "nul",
            "[1]]",
            "{\"a\" 1}",
            "\"\\ud800\"",
            "+1",
            "--1",
            ".5",
            "1e400",
            "-1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_stops_stack_abuse() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        assert!(Json::parse(&deep).is_err());
        // a comfortably-nested document still parses
        let ok = "[".repeat(32) + &"]".repeat(32);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("é😀".into()));
        // serializer writes the raw chars; they parse back identically
        let again = Json::parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json(), "null");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every finite f64 survives serialize → parse bit for bit.
        #[test]
        fn f64_wire_round_trip_is_lossless(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            let wire = Json::Num(x).to_json();
            let back = Json::parse(&wire).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits(), "{} -> {}", x, wire);
        }
    }

    fn arb_context() -> impl Strategy<Value = Context> {
        proptest::collection::vec((0u32..6, 0u32..9), 0..4)
            .prop_map(|pairs| Context::of(pairs.into_iter().map(|(a, v)| (AttrId(a), v))))
    }

    fn arb_opts() -> impl Strategy<Value = RecourseOptions> {
        (
            0.0f64..1.0,
            0u32..4,
            0usize..100,
            0usize..300,
            proptest::collection::vec(0.1f64..5.0, 0..4),
            proptest::collection::vec((0u32..6, 0.0f64..10.0), 0..3),
        )
            .prop_map(
                |(alpha, cost_kind, min_support, max_rejections, escalations, ws)| {
                    RecourseOptions {
                        alpha,
                        cost: match cost_kind {
                            0 => CostModel::Unit,
                            1 => CostModel::OrdinalLinear,
                            2 => CostModel::OrdinalQuadratic,
                            _ => CostModel::Weighted(
                                ws.into_iter().map(|(a, w)| (AttrId(a), w)).collect(),
                            ),
                        },
                        min_support,
                        max_rejections,
                        escalations,
                    }
                },
            )
    }

    fn arb_request() -> impl Strategy<Value = ExplainRequest> {
        (
            0u32..5,
            arb_context(),
            0u32..6,
            proptest::collection::vec(0u32..9, 1..8),
            proptest::collection::vec(0u32..6, 1..4),
            arb_opts(),
        )
            .prop_map(|(kind, k, attr, row, actionable, opts)| match kind {
                0 => ExplainRequest::Global,
                1 => ExplainRequest::ContextualGlobal { k },
                2 => ExplainRequest::Contextual {
                    attr: AttrId(attr),
                    k,
                },
                3 => ExplainRequest::Local { row },
                _ => ExplainRequest::Recourse {
                    row,
                    actionable: actionable.into_iter().map(AttrId).collect(),
                    opts,
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// request → JSON → request is the identity (compared through
        /// Debug: the request enum deliberately has no PartialEq since
        /// cost models may gain float-valued members).
        #[test]
        fn request_round_trips(request in arb_request()) {
            let wire = request_to_json(&request).to_json();
            let back = request_from_json(&Json::parse(&wire).unwrap()).unwrap();
            prop_assert_eq!(format!("{:?}", back), format!("{:?}", request));
            // and the re-encoded bytes are identical (determinism)
            prop_assert_eq!(request_to_json(&back).to_json(), wire);
        }
    }

    fn arb_scores() -> impl Strategy<Value = Scores> {
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(necessity, sufficiency, nesuf)| Scores {
            necessity,
            sufficiency,
            nesuf,
        })
    }

    fn arb_response() -> impl Strategy<Value = ExplainResponse> {
        let attr_scores = (
            0u32..6,
            proptest::string::string_regex("[a-z ]{0,12}").unwrap(),
            arb_scores(),
            0u32..3,
            0u32..9,
            0u32..9,
        )
            .prop_map(|(attr, name, scores, tag, hi, lo)| AttributeScores {
                attr: AttrId(attr),
                name,
                scores,
                best_pair: if tag == 0 { None } else { Some((hi, lo)) },
            });
        let contribution = (
            0u32..6,
            proptest::string::string_regex("[a-z]{0,8}").unwrap(),
            0u32..9,
            proptest::string::string_regex("[a-z]{0,8}").unwrap(),
            0.0f64..1.0,
            0.0f64..1.0,
        )
            .prop_map(
                |(attr, name, value, label, positive, negative)| LocalContribution {
                    attr: AttrId(attr),
                    name,
                    value,
                    label,
                    positive,
                    negative,
                },
            );
        let action = (
            (
                0u32..6,
                proptest::string::string_regex("[a-z]{0,8}").unwrap(),
                0u32..9,
                0u32..9,
            ),
            (
                proptest::string::string_regex("[a-z]{0,8}").unwrap(),
                proptest::string::string_regex("[a-z]{0,8}").unwrap(),
                0.0f64..9.0,
            ),
        )
            .prop_map(
                |((attr, name, from, to), (from_label, to_label, cost))| Action {
                    attr: AttrId(attr),
                    name,
                    from,
                    to,
                    from_label,
                    to_label,
                    cost,
                },
            );
        (
            0u32..4,
            proptest::collection::vec(attr_scores, 0..5),
            (0u32..6, arb_context(), arb_scores()),
            (0u32..2, proptest::collection::vec(contribution, 0..5)),
            (
                proptest::collection::vec(action, 0..4),
                0.0f64..20.0,
                0u32..3,
                0.0f64..1.0,
                0usize..500,
            ),
        )
            .prop_map(
                |(kind, attributes, (attr, context, scores), (outcome, contributions), r)| {
                    match kind {
                        0 => ExplainResponse::Global(GlobalExplanation { attributes }),
                        1 => ExplainResponse::Contextual(ContextualExplanation {
                            attr: AttrId(attr),
                            context,
                            scores,
                        }),
                        2 => ExplainResponse::Local(LocalExplanation {
                            outcome,
                            contributions,
                        }),
                        _ => {
                            let (actions, total_cost, vtag, v, n_constraints) = r;
                            ExplainResponse::Recourse(Recourse {
                                actions,
                                total_cost,
                                verified_sufficiency: if vtag == 0 { None } else { Some(v) },
                                surrogate_probability: v,
                                n_constraints,
                            })
                        }
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// response → JSON → response is the identity, and re-encoding
        /// is byte-stable.
        #[test]
        fn response_round_trips(response in arb_response()) {
            let wire = response_to_json(&response).to_json();
            let back = response_from_json(&Json::parse(&wire).unwrap()).unwrap();
            prop_assert_eq!(format!("{:?}", back), format!("{:?}", response));
            prop_assert_eq!(response_to_json(&back).to_json(), wire);
        }

        /// error → JSON → RemoteError → JSON is byte-stable, and the
        /// code/status mapping is consistent.
        #[test]
        fn error_round_trips(tag in 0u32..3, msg in proptest::string::string_regex("[a-z 0-9]{0,40}").unwrap()) {
            let err = match tag {
                0 => LewisError::Invalid(msg.clone()),
                1 => LewisError::Unsupported(msg.clone()),
                _ => LewisError::NoRecourse(msg.clone()),
            };
            let wire = error_to_json(&err).to_json();
            let remote = error_from_json(&Json::parse(&wire).unwrap()).unwrap();
            prop_assert_eq!(&remote.code, error_code(&err));
            prop_assert_eq!(remote_error_to_json(&remote).to_json(), wire);
            let status = error_status(&err);
            prop_assert!(status == 400 || status == 422);
        }
    }

    #[test]
    fn decode_errors_name_their_path() {
        let j = Json::parse(r#"{"kind":"contextual","attr":"x","context":[]}"#).unwrap();
        let err = request_from_json(&j).unwrap_err();
        assert_eq!(err.path, "attr");
        let j = Json::parse(
            r#"{"kind":"recourse","row":[0],"actionable":[0],"opts":{"escalations":[1,"x"]}}"#,
        )
        .unwrap();
        let err = request_from_json(&j).unwrap_err();
        assert_eq!(err.path, "opts.escalations[1]");
    }

    #[test]
    fn recourse_opts_default_when_omitted() {
        let j = Json::parse(r#"{"kind":"recourse","row":[0,1],"actionable":[0]}"#).unwrap();
        let ExplainRequest::Recourse { opts, .. } = request_from_json(&j).unwrap() else {
            panic!("wrong kind");
        };
        let d = RecourseOptions::default();
        assert_eq!(opts.alpha, d.alpha);
        assert_eq!(opts.min_support, d.min_support);
        assert_eq!(opts.escalations, d.escalations);
    }

    #[test]
    fn codes_must_be_integers() {
        let j = Json::parse(r#"{"kind":"local","row":[0.5]}"#).unwrap();
        assert!(request_from_json(&j).is_err());
        let j = Json::parse(r#"{"kind":"local","row":[4294967296]}"#).unwrap();
        assert!(request_from_json(&j).is_err(), "out of u32 range");
    }
}
