//! The one JSON codec: a value type, one writer and one parser.
//!
//! Every artifact and benchmark record is built as a [`Json`] value and
//! written by its `Display`, which has one layout rule:
//!
//! * A [`Layout::Block`] container puts each entry on its own line,
//!   two spaces deeper than the line it opens on, and closes at that
//!   line's indent.
//! * A [`Layout::Inline`] container prints `{"k": v, "k": v}` or
//!   `[a, b]`; a `Block` container inside it still breaks lines,
//!   indented from the line the inline one sits on.
//! * An empty container prints `{}` or `[]`.
//!
//! Numbers are kept as text (an integer or fixed-point decimal), so the
//! writer never formats a float and identical runs write identical
//! bytes. Objects keep insertion order.
//!
//! The parser accepts any JSON document, keeps numbers as their source
//! text, and infers each container's layout: non-empty with a newline
//! before its first entry is `Block`, anything else `Inline`. So for a
//! value whose empty containers are `Inline`,
//! `Json::parse(&v.to_string()) == Ok(v)`.

use std::fmt;

/// How a container is written; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One entry per line.
    Block,
    /// All entries on one line.
    Inline,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Layout, Vec<Json>),
    /// An object, in insertion order.
    Object(Layout, Vec<(String, Json)>),
}

/// A parse failure (with its byte offset), or a document of the wrong
/// shape for its reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object written one entry per line.
    pub fn block() -> Json {
        Json::Object(Layout::Block, Vec::new())
    }

    /// An empty object written on one line.
    pub fn inline() -> Json {
        Json::Object(Layout::Inline, Vec::new())
    }

    /// An object of `entries`, in order.
    pub fn object<K: Into<String>, V: Into<Json>>(
        layout: Layout,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> Json {
        let entries = entries.into_iter().map(|(k, v)| (k.into(), v.into()));
        Json::Object(layout, entries.collect())
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(layout: Layout, items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(layout, items.into_iter().map(Into::into).collect())
    }

    /// `value` with `decimals` digits after the point
    /// (`Json::fixed(1.5, 3)` writes `1.500`).
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Num(format!("{value:.decimals$}"))
    }

    /// This object with `key: value` appended. Panics on a non-object.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Appends `key: value` to this object. Panics on a non-object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Object(_, entries) => entries.push((key.into(), value.into())),
            other => panic!("Json::push on a non-object: {other}"),
        }
    }

    /// The value of `key` in an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let entries = self.as_object()?;
        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(_, entries) => Some(entries),
            _ => None,
        }
    }

    /// The values of exactly `keys`, in that order: an error when this
    /// is not an object, lacks one of the keys or carries any other.
    pub fn fields<const N: usize>(&self, keys: [&str; N]) -> Result<[&Json; N], JsonError> {
        let entries = self
            .as_object()
            .ok_or_else(|| JsonError(format!("expected an object with keys {keys:?}")))?;
        if let Some((k, _)) = entries.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            return Err(JsonError(format!("unexpected key {k:?}")));
        }
        let mut out = [&Json::Null; N];
        for (slot, key) in out.iter_mut().zip(keys) {
            *slot = self
                .get(key)
                .ok_or_else(|| JsonError(format!("missing key {key:?}")))?;
        }
        (entries.len() == N)
            .then_some(out)
            .ok_or_else(|| JsonError(format!("repeated keys among {keys:?}")))
    }

    /// The number as a `u64`; `what` names it in the error.
    pub fn u64_of(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
        .ok_or_else(|| JsonError(format!("{what}: expected an unsigned integer")))
    }

    /// The value as a file: its text plus one trailing newline.
    pub fn document(&self) -> String {
        format!("{self}\n")
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == p.bytes.len())
            .then_some(v)
            .ok_or_else(|| p.err("trailing content after JSON value"))
    }

    /// Writes the value into `out`; `indent` is the indent of the line
    /// the value starts on.
    fn write(&self, out: &mut String, indent: usize) {
        let (layout, entries, [open, close]): (_, Vec<(Option<&str>, &Json)>, _) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Array(l, items) => (*l, items.iter().map(|v| (None, v)).collect(), ['[', ']']),
            Json::Object(l, entries) => {
                let entries = entries.iter().map(|(k, v)| (Some(k.as_str()), v));
                (*l, entries.collect(), ['{', '}'])
            }
        };
        let block = layout == Layout::Block && !entries.is_empty();
        let inner = if block { indent + 2 } else { indent };
        let [open_break, separator, close_break] = if block {
            let line = |n: usize| format!("\n{:n$}", "");
            [line(inner), format!(",{}", line(inner)), line(indent)]
        } else {
            [String::new(), ", ".to_owned(), String::new()]
        };
        out.push(open);
        out.push_str(&open_break);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push_str(&separator);
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, inner);
        }
        out.push_str(&close_break);
        out.push(close);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($variant:ident: $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.to_string())
            }
        }
    )*};
}
json_from!(Num: u16, u32, u64, usize, i64, i128, u128);
json_from!(Str: &str, String, &String);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("byte {}: {msg}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skips whitespace; reports whether it crossed a newline.
    fn skip_ws(&mut self) -> bool {
        let mut newline = false;
        while let Some(b @ (b' ' | b'\t' | b'\n' | b'\r')) = self.peek() {
            newline |= b == b'\n';
            self.pos += 1;
        }
        newline
    }

    /// Consumes `lit` or fails.
    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if !self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.err(&format!("expected {lit}")));
        }
        self.pos += lit.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'{') => {
                let (layout, entries) = self.container(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(":")?;
                    Ok((key, p.value()?))
                })?;
                Json::Object(layout, entries)
            }
            Some(b'[') => {
                let (layout, items) = self.container(b']', Parser::value)?;
                Json::Array(layout, items)
            }
            Some(b'"') => Json::Str(self.string()?),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true))?,
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false))?,
            Some(b'n') => self.eat("null").map(|()| Json::Null)?,
            Some(b'-' | b'0'..=b'9') => self.number()?,
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        })
    }

    /// Parses `open entry, entry close` (the opening byte is at `pos`),
    /// inferring the layout from a newline before the first entry.
    fn container<T>(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(Layout, Vec<T>), JsonError> {
        self.pos += 1;
        let newline = self.skip_ws();
        let mut entries = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok((Layout::Inline, entries));
        }
        let layout = if newline {
            Layout::Block
        } else {
            Layout::Inline
        };
        loop {
            self.skip_ws();
            entries.push(entry(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok((layout, entries));
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    let simple = br#""\/bfnrt"#.iter().position(|&b| Some(b) == esc);
                    if let Some(i) = simple {
                        out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
                        continue;
                    }
                    // Surrogate pairs are never written here, so a lone
                    // surrogate is rejected, not decoded.
                    let code = (esc == Some(b'u'))
                        .then(|| self.bytes.get(self.pos..self.pos + 4))
                        .flatten()
                        .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad escape"))?;
                    out.push(code);
                    self.pos += 4;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Up to the next quote, backslash or control byte:
                    // ASCII boundaries, so the slice is valid UTF-8.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("UTF-8"));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits()?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        Ok(Json::Num(text.to_owned()))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        (self.pos > from)
            .then_some(())
            .ok_or_else(|| self.err("expected a digit"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{check_cases, SimRng};

    #[test]
    fn writer_follows_the_layout_rule() {
        let v = Json::block()
            .with("a", 1u64)
            .with("empty", Json::block())
            .with(
                "rows",
                Json::array(
                    Layout::Block,
                    [Json::inline().with("k", "v").with("n", -2i64)],
                ),
            )
            .with(
                "nest",
                Json::inline()
                    .with("x", Json::array(Layout::Inline, [1u64, 2]))
                    .with("deep", Json::array(Layout::Block, [true])),
            )
            .with("none", Option::<u64>::None)
            .with("f", Json::fixed(0.5, 3));
        assert_eq!(
            v.document(),
            "{\n  \"a\": 1,\n  \"empty\": {},\n  \"rows\": [\n    {\"k\": \"v\", \"n\": -2}\n  ],\n  \
             \"nest\": {\"x\": [1, 2], \"deep\": [\n    true\n  ]},\n  \"none\": null,\n  \
             \"f\": 0.500\n}\n"
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = Json::parse(
            r#"{"name": "x", "units": {"t": "ns"}, "before": [1, 2.5, -3e2], "after": {"a": null, "b": [true, false, "qA\n"]}}"#,
        )
        .expect("valid json");
        assert_eq!(doc.get("name"), Some(&Json::Str("x".to_owned())));
        let Some(Json::Array(_, before)) = doc.get("before") else {
            panic!("before is an array");
        };
        assert_eq!(before.len(), 3);
        assert_eq!(before[2], Json::Num("-3e2".to_owned()));
        let after = doc.get("after").expect("after present");
        assert_eq!(after.get("a"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 01x}",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "\"\\ud800\"",
            "\"tab\there\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn fields_demand_exactly_the_named_keys() {
        let v = Json::parse(r#"{"a": 1, "b": 2}"#).unwrap();
        let [a, b] = v.fields(["a", "b"]).unwrap();
        assert_eq!((a.u64_of("a"), b.u64_of("b")), (Ok(1), Ok(2)));
        assert!(v.fields(["a"]).is_err(), "extra key");
        assert!(v.fields(["a", "b", "c"]).is_err(), "missing key");
        assert!(Json::Null.fields(["a"]).is_err(), "not an object");
        assert!(Json::Num("-1".into()).u64_of("x").is_err());
    }

    fn random_string(rng: &mut SimRng) -> String {
        const PICKS: [char; 12] = [
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'é', '→',
        ];
        (0..rng.gen_range(0..8usize))
            .map(|_| PICKS[rng.gen_range(0..PICKS.len())])
            .collect()
    }

    fn random_value(rng: &mut SimRng, depth: u32) -> Json {
        let pick = if depth == 0 {
            rng.gen_range(0..4u32)
        } else {
            rng.gen_range(0..6u32)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 if rng.gen_bool(0.5) => Json::from(rng.next_u64() as i64),
            2 => Json::fixed(rng.gen_f64() * 1e6 - 5e5, rng.gen_range(0..7usize)),
            3 => Json::Str(random_string(rng)),
            _ => {
                let len = rng.gen_range(0..5usize);
                // Empty containers print the same in either layout and
                // parse back as inline.
                let layout = if len > 0 && rng.gen_bool(0.5) {
                    Layout::Block
                } else {
                    Layout::Inline
                };
                if pick == 4 {
                    Json::Array(
                        layout,
                        (0..len).map(|_| random_value(rng, depth - 1)).collect(),
                    )
                } else {
                    Json::Object(
                        layout,
                        (0..len)
                            .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                            .collect(),
                    )
                }
            }
        }
    }

    #[test]
    fn parse_inverts_write() {
        check_cases("json_round_trip", 500, |_, rng| {
            let v = random_value(rng, 4);
            let text = v.to_string();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "text: {text}");
        });
    }

    /// Every checked-in artifact and benchmark record parses, and the
    /// writer reproduces each one byte for byte from its parsed value.
    #[test]
    fn checked_in_json_parses_and_rewrites_identically() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for dir in [root.clone(), root.join("artifacts")] {
            for entry in std::fs::read_dir(&dir).expect("read dir") {
                let path = entry.expect("dir entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let in_artifacts = dir != root;
                if name.ends_with(".json") && (in_artifacts || name.starts_with("BENCH_")) {
                    files.push(path);
                }
            }
        }
        assert!(files.len() >= 12, "found only {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("read");
            let doc = Json::parse(&text)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
            assert_eq!(doc.to_string(), text.trim_end(), "{}", path.display());
        }
    }
}
