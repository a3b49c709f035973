//! A small JSON reader/writer for the campaign format and serve requests.
//!
//! The offline build environment stubs `serde_json` out, and the readers
//! here need something it never offered anyway: diagnostics that say
//! *where* in the file something went wrong (1-based line and column,
//! columns counting characters), not just *that* it did.
//!
//! There is one tokenizer, `Lexer`. It tracks only a byte offset and the
//! nesting depth; a `Cursor` turns offsets into line and column, scanning
//! forward, and only when something asks. Two readers sit on it:
//!
//! - [`parse`] builds a [`Json`] tree whose nodes carry their positions.
//!   Serve requests, the export's small sections and the other artifacts
//!   are read this way.
//! - The campaign loader (`crate::export`) decodes the record sections
//!   straight from tokens: scalars come out as `Tok`s (strings borrowed
//!   from the source unless they hold escapes), arrays and objects inside
//!   a record are validated and skipped, and no tree is built.
//!
//! Both accept and reject exactly the same documents with the same
//! errors. The dialect is strict JSON with two deliberate relaxations on
//! input: numbers are held as `f64` (every integer the campaign format
//! emits is below 2^53, so the round-trip is exact; plain integers of up
//! to 15 digits skip the float parser), and object keys keep their
//! first-seen order (duplicates are rejected).
//!
//! Nesting is bounded by [`MAX_DEPTH`]: deeper input is a [`ParseError`],
//! never a stack overflow. Serve request lines and campaign exports are
//! untrusted.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts: far above what the
/// campaign format or a serve request uses, far below what overflows a
/// serve connection thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value plus the source position it started at.
#[derive(Clone, Debug, PartialEq)]
pub struct Json {
    /// The value itself.
    pub value: Value,
    /// 1-based source line of the value's first character.
    pub line: u32,
    /// 1-based source column of the value's first character.
    pub col: u32,
}

/// The JSON value kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `"at line L column C"` — for error messages.
    pub fn at(&self) -> String {
        format!("at line {} column {}", self.line, self.col)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match &self.value {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match &self.value {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match &self.value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match &self.value {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The number as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(exact_i64)
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self.value, Value::Null)
    }
}

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at line {} column {}: {}",
            self.line, self.col, self.what
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut lx = Lexer::new(src);
    let mut cursor = Cursor::default();
    let doc = (|| {
        lx.skip_ws();
        let v = lx.tree(&mut cursor)?;
        lx.finish()?;
        Ok(v)
    })();
    doc.map_err(|e: LexError| e.locate(src))
}

/// The keys of a top-level object, in source order, or `None` when the
/// document is valid JSON but not an object. Values are validated as
/// [`parse`] would and skipped without being built, so classifying a
/// large document by its keys costs one lexing pass and no tree.
pub fn root_keys(src: &str) -> Result<Option<Vec<String>>, ParseError> {
    let mut lx = Lexer::new(src);
    let keys = (|| {
        lx.skip_ws();
        if lx.peek() != Some(b'{') {
            lx.skip_value()?;
            lx.finish()?;
            return Ok(None);
        }
        lx.open(b'{')?;
        let mut keys = Vec::new();
        while lx.member(&mut keys)?.is_some() {
            lx.skip_value()?;
        }
        lx.finish()?;
        Ok(Some(keys.into_iter().map(Cow::into_owned).collect()))
    })();
    keys.map_err(|e: LexError| e.locate(src))
}

/// `n` as a non-negative integer, if it is one exactly (≤ 2^53).
fn exact_u64(n: f64) -> Option<u64> {
    ((0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

/// `n` as a signed integer, if it is one exactly (|n| ≤ 2^53).
fn exact_i64(n: f64) -> Option<i64> {
    (n.abs() <= 9_007_199_254_740_992.0 && n.fract() == 0.0).then_some(n as i64)
}

// ---------------------------------------------------------------------------
// The tokenizer
// ---------------------------------------------------------------------------

/// A lexing failure at a byte offset; [`LexError::locate`] turns it into
/// a [`ParseError`].
#[derive(Debug)]
pub(crate) struct LexError {
    at: usize,
    what: String,
}

impl LexError {
    /// The error with its line and column in `src`.
    pub(crate) fn locate(self, src: &str) -> ParseError {
        let (line, col) = Cursor::default().at(src.as_bytes(), self.at);
        ParseError {
            line,
            col,
            what: self.what,
        }
    }
}

/// Converts byte offsets to 1-based (line, column), scanning forward from
/// the last offset it converted. Columns count characters: the bytes of
/// a multi-byte UTF-8 character advance it once, on the leading byte.
pub(crate) struct Cursor {
    off: usize,
    line: u32,
    col: u32,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor {
            off: 0,
            line: 1,
            col: 1,
        }
    }
}

impl Cursor {
    /// The position of byte `off` of `src`. Cheap for increasing offsets;
    /// an offset behind the last one rescans from the start.
    pub(crate) fn at(&mut self, src: &[u8], off: usize) -> (u32, u32) {
        if off < self.off {
            *self = Cursor::default();
        }
        // Counted in byte-wide lanes, 255 bytes at a time, rather than by
        // a per-byte state machine: the trees after the record sections
        // of a compact export sit 30 MB into its one line.
        for chunk in src[self.off..off].chunks(255) {
            let (mut newlines, mut chars) = (0u8, 0u8);
            for &b in chunk {
                newlines += (b == b'\n') as u8;
                chars += (b & 0xC0 != 0x80) as u8;
            }
            if newlines == 0 {
                self.col += chars as u32;
            } else {
                let last = chunk.iter().rposition(|&b| b == b'\n').expect("a newline");
                self.line += newlines as u32;
                self.col = 1 + chunk[last + 1..]
                    .iter()
                    .filter(|&&b| b & 0xC0 != 0x80)
                    .count() as u32;
            }
        }
        self.off = off;
        (self.line, self.col)
    }
}

/// One scalar value, or `Other` for a (validated, skipped) array or
/// object. Strings borrow from the source unless they hold escapes.
#[derive(Debug)]
pub(crate) enum Tok<'a> {
    Null,
    Bool(bool),
    /// A plain integer of at most 15 digits, so below 2^53 in magnitude;
    /// `-0` is a `Num`, as it is not the integer 0 in the tree.
    Int(i64),
    Num(f64),
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Tok<'a> {
    /// The token view of a parsed value; containers are `Other`.
    pub(crate) fn of(j: &'a Json) -> Tok<'a> {
        match &j.value {
            Value::Null => Tok::Null,
            Value::Bool(b) => Tok::Bool(*b),
            Value::Num(n) => Tok::Num(*n),
            Value::Str(s) => Tok::Str(Cow::Borrowed(s)),
            Value::Arr(_) | Value::Obj(_) => Tok::Other,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Tok::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Exactly as [`Json::as_u64`].
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Tok::Int(v) => u64::try_from(*v).ok(),
            Tok::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// Exactly as [`Json::as_i64`].
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Tok::Int(v) => Some(*v),
            Tok::Num(n) => exact_i64(*n),
            _ => None,
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Tok::Null)
    }
}

/// The one JSON tokenizer. It tracks only a byte offset and the nesting
/// depth; positions are computed from offsets when something needs them.
/// [`parse`] builds its tree on it, and the campaign loader decodes
/// records from it directly.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer::resume(src, 0, 0)
    }

    /// A lexer at byte `pos` of `src`, inside `depth` open containers.
    pub(crate) fn resume(src: &'a str, pos: usize, depth: usize) -> Self {
        Lexer { src, pos, depth }
    }

    /// The current byte offset.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn err(&self, what: impl Into<String>) -> LexError {
        LexError {
            at: self.pos,
            what: what.into(),
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the document.
    pub(crate) fn finish(&mut self) -> Result<(), LexError> {
        self.skip_ws();
        if self.pos < self.src.len() {
            return Err(self.err("trailing characters after the JSON document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), LexError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Enter the array or object opened by `b`, one level deeper.
    pub(crate) fn open(&mut self, b: u8) -> Result<(), LexError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.expect(b)?;
        self.depth += 1;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Inside an [`open`](Self::open)ed array: move to the next element
    /// and say whether there is one (`false` has consumed the `]`).
    /// `first` is set before the first call.
    pub(crate) fn more_items(&mut self, first: &mut bool) -> Result<bool, LexError> {
        self.skip_ws();
        if !std::mem::take(first) {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                    return Ok(true);
                }
                Some(b']') => {}
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        } else if self.peek() != Some(b']') {
            return Ok(true);
        }
        self.close();
        Ok(false)
    }

    /// Inside an [`open`](Self::open)ed object: the next member's key,
    /// with the lexer on its value, or `None` once the `}` is consumed.
    /// `seen` collects the object's keys (empty before the first call);
    /// a repeated key is an error at the repeat.
    pub(crate) fn member(
        &mut self,
        seen: &mut Vec<Cow<'a, str>>,
    ) -> Result<Option<Cow<'a, str>>, LexError> {
        self.skip_ws();
        if !seen.is_empty() {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        } else if self.peek() == Some(b'}') {
            self.close();
            return Ok(None);
        }
        let at = self.pos;
        let key = self.string()?;
        if seen.contains(&key) {
            return Err(LexError {
                at,
                what: format!("duplicate key {key:?}"),
            });
        }
        seen.push(key.clone());
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// The next value as a token: scalars decoded, arrays and objects
    /// validated and skipped as [`Tok::Other`].
    pub(crate) fn token(&mut self) -> Result<Tok<'a>, LexError> {
        match self.peek() {
            Some(b'{' | b'[') => self.skip_value().map(|()| Tok::Other),
            Some(b'"') => self.string().map(Tok::Str),
            Some(b't') => self.keyword("true").map(|()| Tok::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Tok::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| Tok::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Skip one value, rejecting everything [`parse`] rejects.
    pub(crate) fn skip_value(&mut self) -> Result<(), LexError> {
        match self.peek() {
            Some(b'[') => {
                self.open(b'[')?;
                let mut first = true;
                while self.more_items(&mut first)? {
                    self.skip_value()?;
                }
            }
            Some(b'{') => {
                self.open(b'{')?;
                let mut seen = Vec::new();
                while self.member(&mut seen)?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {
                self.token()?;
            }
        }
        Ok(())
    }

    /// Build the [`Json`] tree of the next value; `cursor` supplies the
    /// node positions.
    pub(crate) fn tree(&mut self, cursor: &mut Cursor) -> Result<Json, LexError> {
        let (line, col) = cursor.at(self.src.as_bytes(), self.pos);
        let value = match self.peek() {
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                let mut first = true;
                while self.more_items(&mut first)? {
                    items.push(self.tree(cursor)?);
                }
                Value::Arr(items)
            }
            Some(b'{') => {
                self.open(b'{')?;
                let (mut seen, mut fields) = (Vec::new(), Vec::new());
                while let Some(key) = self.member(&mut seen)? {
                    let v = self.tree(cursor)?;
                    fields.push((key.into_owned(), v));
                }
                Value::Obj(fields)
            }
            _ => match self.token()? {
                Tok::Null => Value::Null,
                Tok::Bool(b) => Value::Bool(b),
                Tok::Int(v) => Value::Num(v as f64),
                Tok::Num(n) => Value::Num(n),
                Tok::Str(s) => Value::Str(s.into_owned()),
                Tok::Other => unreachable!("containers are handled above"),
            },
        };
        Ok(Json { value, line, col })
    }

    fn keyword(&mut self, kw: &str) -> Result<(), LexError> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    /// A number. Plain integers of up to 15 digits (all below 2^53, so
    /// exact in an `f64`) are converted directly to a [`Tok::Int`];
    /// everything else goes through `f64` parsing, so both paths accept
    /// and round alike.
    fn number(&mut self) -> Result<Tok<'a>, LexError> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let neg = bytes.get(start) == Some(&b'-');
        let digits = start + neg as usize;
        let run = bytes[digits..]
            .iter()
            .take_while(|c| c.is_ascii_digit())
            .count();
        let end = digits + run;
        let v = bytes[digits..end].iter().fold(0i64, |v, &c| {
            v.wrapping_mul(10).wrapping_add((c - b'0') as i64)
        });
        if (1..=15).contains(&run)
            && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E'))
            && !(neg && v == 0)
        {
            self.pos = end;
            return Ok(Tok::Int(if neg { -v } else { v }));
        }
        self.pos = end;
        let skip_digits = |lx: &mut Self| {
            while matches!(lx.peek(), Some(c) if c.is_ascii_digit()) {
                lx.pos += 1;
            }
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            skip_digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            skip_digits(self);
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Tok::Num)
            .ok_or(LexError {
                at: start,
                what: format!("invalid number {text:?}"),
            })
    }

    /// A string, borrowed from the source when it holds no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, LexError> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let run = bytes[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(bytes.len(), |n| start + n);
        self.pos = run;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..run]));
        }
        let mut out = String::from(&self.src[start..run]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let run = bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .map_or(bytes.len(), |n| self.pos + n);
                    // The slice ends before an ASCII byte or at the end of
                    // the source, so it is whole characters.
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// The character of a `\u` escape, `pos` on its first hex digit.
    fn unicode_escape(&mut self) -> Result<char, LexError> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            // Surrogate pair: require the low half.
            self.keyword("\\u")
                .map_err(|_| self.err("lone high surrogate"))?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))
        }
    }

    fn hex4(&mut self) -> Result<u32, LexError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append a JSON string literal (with escaping) to `out`.
///
/// A string with no byte to escape (no `"`, `\` or control byte) is
/// copied in one piece; only the rest take the per-char path. Bytes of
/// multi-byte UTF-8 characters are all `>= 0x80`, so they never need
/// escaping.
pub fn push_str_lit(out: &mut String, s: &str) {
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        push_str_lit_escaped(out, s);
    } else {
        out.reserve(s.len() + 2);
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// The per-char path of [`push_str_lit`].
fn push_str_lit_escaped(out: &mut String, s: &str) {
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

/// Two ASCII digits for each value `0..100`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `v` in decimal — the bytes of `v.to_string()`, formatted in a
/// stack buffer instead of a fresh `String`.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    // SAFETY: `buf[i..]` holds only ASCII digits, which are valid UTF-8.
    // Skipping the validation pass is a third of this function's cost
    // over the millions of numbers in an export.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&buf[i..]) });
}

/// Append `v` in decimal — the bytes of `v.to_string()`, `i64::MIN`
/// included.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append a number. Rust's shortest-round-trip `Display` for `f64` is
/// already valid JSON for every finite value; non-finite values cannot
/// occur in the campaign format (asserted in debug builds).
pub fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "campaign format never contains {v}");
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters that exercise every branch of the string writer:
    /// plain ASCII, each escape, other control bytes, DEL and 2-, 3- and
    /// 4-byte UTF-8.
    const CHARS: [char; 16] = [
        'a', 'Z', '0', ' ', '.', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '日', '🚀',
    ];

    proptest! {
        #[test]
        fn integer_writers_match_to_string(u in any::<u64>(), i in any::<i64>(), small in 0u64..1_000) {
            for v in [u, small, u >> 32, 0, u64::MAX] {
                let mut o = String::from("x");
                push_u64(&mut o, v);
                prop_assert_eq!(o, format!("x{v}"));
            }
            for v in [i, -(small as i64), (i >> 32), 0, i64::MIN, i64::MAX] {
                let mut o = String::from("x");
                push_i64(&mut o, v);
                prop_assert_eq!(o, format!("x{v}"));
            }
        }

        #[test]
        fn str_lit_fast_path_matches_per_char_path(
            picks in prop::collection::vec(0usize..64, 0..24),
        ) {
            // Indices past the table pick 'a', so most strings take the
            // fast path and some take the escaping one.
            let s: String = picks.iter().map(|&k| *CHARS.get(k).unwrap_or(&'a')).collect();
            let mut fast = String::from("x");
            push_str_lit(&mut fast, &s);
            let mut slow = String::from("x");
            push_str_lit_escaped(&mut slow, &s);
            prop_assert_eq!(&fast, &slow);
            let back = parse(&fast[1..]).unwrap();
            prop_assert_eq!(back.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn parses_scalars_and_positions() {
        let j = parse("  {\n  \"a\": [1, -2.5, 1e3],\n  \"b\": null\n}").unwrap();
        assert_eq!(j.line, 1);
        assert_eq!(j.col, 3);
        let a = j.get("a").unwrap();
        assert_eq!(a.line, 2);
        let items = a.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert!(j.get("b").unwrap().is_null());
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut lit = String::new();
        push_str_lit(&mut lit, "a\"b\\c\nd\te\u{1}é世");
        let j = parse(&lit).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\nd\te\u{1}é世"));
        // Unicode escapes, including surrogate pairs.
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": 1,\n  \"a\": 2\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 3));
        assert!(err.what.contains("duplicate"));
        let err = parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse("{\"a\": nope}").unwrap_err();
        assert!(err.what.contains("null"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [
            0.0,
            -0.5,
            1.25e-3,
            6_583_000_000.0f64,
            9_007_199_254_740_992.0,
            5_000_000_000_000_000.0,
            0.1_f64 + 0.2, // 0.30000000000000004: shortest repr needs 17 digits
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(v), "value {v}");
        }
        // Integer accessors refuse to silently truncate.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_i64(), Some(-1));
    }

    /// The reference integer views of `text`: parse it as an `f64`, then
    /// accept exact integers up to 2^53 in magnitude.
    fn f64_oracle(text: &str) -> (u64, Option<u64>, Option<i64>) {
        let n: f64 = text.parse().unwrap();
        let u =
            ((0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0).then_some(n as u64);
        let i = (n.abs() <= 9_007_199_254_740_992.0 && n.fract() == 0.0).then_some(n as i64);
        (n.to_bits(), u, i)
    }

    /// The number token of `text`, by the tokenizer and through the tree.
    fn both_ways(text: &str) -> [(u64, Option<u64>, Option<i64>); 2] {
        let tok = Lexer::new(text).token().unwrap();
        let n = match tok {
            Tok::Int(v) => v as f64,
            Tok::Num(n) => n,
            _ => panic!("{text} is not a number token"),
        };
        let j = parse(text).unwrap();
        [
            (n.to_bits(), tok.as_u64(), tok.as_i64()),
            (j.as_f64().unwrap().to_bits(), j.as_u64(), j.as_i64()),
        ]
    }

    proptest! {
        #[test]
        fn numbers_decode_like_f64_parsing(
            neg in any::<bool>(),
            int in "[0-9]{1,20}",
            frac in (any::<bool>(), "[0-9]{0,4}"),
            exp in (any::<bool>(), -20i32..20),
        ) {
            let mut text = format!("{}{int}", if neg { "-" } else { "" });
            if frac.0 {
                text = format!("{text}.{}", frac.1);
            }
            if exp.0 {
                text = format!("{text}e{}", exp.1);
            }
            if text.parse::<f64>().is_ok_and(f64::is_finite) {
                let want = f64_oracle(&text);
                prop_assert_eq!(both_ways(&text), [want, want], "{}", text);
            } else {
                prop_assert!(parse(&text).is_err(), "{}", text);
            }
        }
    }

    #[test]
    fn integer_edge_cases_decode_like_f64_parsing() {
        for text in [
            "1.0",
            "1e3",
            "-0",
            "0",
            "01",
            "999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740992",
            "-9007199254740993",
            "18446744073709551616",
            "2.5e-1",
        ] {
            let want = f64_oracle(text);
            assert_eq!(both_ways(text), [want, want], "{text}");
        }
        // 2^53 + 1 rounds to 2^53 as an f64, so it reads as 2^53.
        assert_eq!(
            f64_oracle("9007199254740993").1,
            Some(9_007_199_254_740_992)
        );
        assert_eq!(f64_oracle("-0").0, (-0.0f64).to_bits());
    }

    /// `(line, col)` of byte `off`: lines split at `\n`, columns count
    /// characters.
    fn line_col(src: &str, off: usize) -> (u32, u32) {
        let before = &src[..off];
        let line = before.matches('\n').count() + 1;
        let col = before.rsplit('\n').next().unwrap().chars().count() + 1;
        (line as u32, col as u32)
    }

    #[test]
    fn positions_count_crlf_and_multibyte_characters() {
        let src = "{\r\n  \"é日🚀\": [\r\n    1, \"🚀\",\r\n    {\"k\": null}\r\n  ]\r\n}";
        let j = parse(src).unwrap();
        let arr = j.get("é日🚀").unwrap();
        let items = arr.as_arr().unwrap();
        let at = |needle: &str| line_col(src, src.find(needle).unwrap());
        assert_eq!((j.line, j.col), (1, 1));
        assert_eq!((arr.line, arr.col), at("[\r\n    1"));
        assert_eq!((items[0].line, items[0].col), at("1,"));
        assert_eq!((items[1].line, items[1].col), at("\"🚀\","));
        assert_eq!((items[2].line, items[2].col), at("{\"k\""));
        let k = items[2].get("k").unwrap();
        assert_eq!((k.line, k.col), at("null"));
        // Errors after a CRLF and multi-byte characters.
        let bad = src.replace("null", "nul");
        let err = parse(&bad).unwrap_err();
        assert_eq!(
            (err.line, err.col),
            line_col(&bad, bad.find("nul}").unwrap())
        );
        let bad = src.replace("\"🚀\",", "\"🚀\" ,]");
        let err = parse(&bad).unwrap_err();
        assert_eq!(
            (err.line, err.col),
            line_col(&bad, bad.find(",]").unwrap() + 1)
        );
    }

    #[test]
    fn root_keys_skip_values_and_keep_parse_errors() {
        let keys = root_keys(" {\"b\": [1, {\"x\": 2}], \"a\": \"s\"} ").unwrap();
        assert_eq!(keys, Some(vec!["b".to_string(), "a".to_string()]));
        assert_eq!(root_keys("[1, 2]").unwrap(), None);
        for bad in [
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": [1, {\"x\": 1, \"x\": 2}]}",
            "{\"a\": 1} x",
            "{\"a\": tru}",
        ] {
            assert_eq!(
                root_keys(bad).unwrap_err(),
                parse(bad).unwrap_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn column_counts_characters_not_bytes() {
        // 'é' is two bytes but one column.
        let err = parse("[\"é\", x]").unwrap_err();
        assert_eq!((err.line, err.col), (1, 7));
    }
}
