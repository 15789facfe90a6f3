//! A small, dependency-free XML subset codec: one pull reader, one
//! writer, and the reference DOM built on the reader.
//!
//! uMiddle's ecosystem is XML-heavy: USDL documents, UPnP device
//! descriptions, SOAP envelopes, GENA notifications and web-service
//! descriptions all share this codec. The supported subset is: elements
//! with attributes, text content, CDATA sections, comments, processing
//! instructions/XML declarations (skipped), and the five predefined
//! entities (`&lt; &gt; &amp; &quot; &apos;`) plus decimal/hex character
//! references. Namespaces are treated lexically (prefixes are part of the
//! name; [`StartTag::local_name`] strips them).
//!
//! There is one tokenizer, [`XmlReader`]: a pull reader over `&str` whose
//! names are borrowed and whose text and attribute values are decoded
//! only when they hold an entity. Every codec reads its fields straight
//! from its events and writes through [`XmlWriter`]. [`Element::parse`]
//! builds the reference DOM from the same events.
//!
//! The reader is total: any input either yields a document or an
//! [`XmlError`] with a byte offset — it never panics. Elements nest at
//! most [`XML_MAX_DEPTH`] deep.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Deepest element nesting the reader accepts. Every bundled USDL, SOAP
/// and description document nests under ten levels; the bound keeps the
/// reader's open-element stack fixed in size, and the reference DOM
/// shallow enough that its derived comparisons, clones and drops, which
/// recurse once per level, fit any thread's stack.
pub const XML_MAX_DEPTH: usize = 128;

/// An XML element: name, attributes, and children (elements and text).
///
/// The reference DOM: no codec uses it. It stays public for the codec
/// oracles, which check the typed readers against readers written over
/// it, and for the benchmarks that time a whole-document parse.
///
/// # Examples
///
/// ```
/// use umiddle_usdl::Element;
///
/// let doc = Element::parse(r#"<root a="1"><child>hi</child></root>"#)?;
/// assert_eq!(doc.name(), "root");
/// assert_eq!(doc.attr("a"), Some("1"));
/// assert_eq!(doc.child("child").unwrap().text(), "hi");
/// # Ok::<(), umiddle_usdl::XmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// A nested element.
    Element(Element),
    /// Text content (entity-decoded).
    Text(String),
}

/// Errors produced by the XML parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for XmlError {}

impl Element {
    /// The element's full name, including any namespace prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name with any namespace prefix stripped (`s:Envelope` →
    /// `Envelope`).
    pub fn local_name(&self) -> &str {
        local_name(&self.name)
    }

    /// Looks up an attribute value.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Child elements, in document order.
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// First child element with the given local name.
    pub fn child(&self, local_name: &str) -> Option<&Element> {
        self.children().find(|e| e.local_name() == local_name)
    }

    /// All child elements with the given local name.
    pub fn children_named<'a>(
        &'a self,
        local_name: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.children()
            .filter(move |e| e.local_name() == local_name)
    }

    /// Concatenated text content of this element (direct text children
    /// only), trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out.trim().to_owned()
    }

    /// Finds the first descendant element (depth-first) with the given
    /// local name, including `self`.
    pub fn find(&self, local_name: &str) -> Option<&Element> {
        if self.local_name() == local_name {
            return Some(self);
        }
        self.children().find_map(|c| c.find(local_name))
    }

    /// Parses a document and returns its root element, built from the
    /// events of an [`XmlReader`].
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input (unterminated tags,
    /// mismatched close tags, bad entities, trailing garbage, elements
    /// nested deeper than [`XML_MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut reader = XmlReader::new(input);
        let mut open: Vec<Element> = Vec::new();
        loop {
            match reader.next()? {
                XmlEvent::Start(tag) => open.push(Element {
                    name: tag.name().to_owned(),
                    attrs: tag
                        .attrs()
                        .map(|(k, v)| (k.to_owned(), v.into_owned()))
                        .collect(),
                    children: Vec::new(),
                }),
                XmlEvent::Text(text) => {
                    if let Some(parent) = open.last_mut() {
                        parent.children.push(Node::Text(text.into_owned()));
                    }
                }
                XmlEvent::End(_) => {
                    let Some(done) = open.pop() else {
                        return Err(reader.err("end tag outside any element"));
                    };
                    match open.last_mut() {
                        Some(parent) => parent.children.push(Node::Element(done)),
                        // The reader has already checked what follows
                        // the root.
                        None => return Ok(done),
                    }
                }
                XmlEvent::Eof => return Err(reader.err("no document element")),
            }
        }
    }
}

/// `name` with any namespace prefix stripped (`s:Envelope` → `Envelope`).
fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Writes XML straight into one `String`: names and markup go in as
/// given, text escapes `<`, `>` and `&`, and attribute values also `"`.
///
/// Every codec writes its fields through it, into a buffer reserved once
/// for the expected size.
///
/// # Examples
///
/// ```
/// use umiddle_usdl::{Element, XmlWriter};
///
/// let mut w = XmlWriter::new(32);
/// w.markup("<e").attr("k", "\"v\"").markup(">");
/// w.leaf("x", "a<b").markup("</e>");
/// let xml = w.finish();
/// assert_eq!(xml, r#"<e k="&quot;v&quot;"><x>a&lt;b</x></e>"#);
/// let e = Element::parse(&xml)?;
/// assert_eq!(e.attr("k"), Some("\"v\""));
/// assert_eq!(e.child("x").unwrap().text(), "a<b");
/// # Ok::<(), umiddle_usdl::XmlError>(())
/// ```
#[derive(Debug, Default)]
pub struct XmlWriter {
    out: String,
}

impl XmlWriter {
    /// The declaration [`XmlWriter::document`] starts with.
    pub const DECLARATION: &'static str = "<?xml version=\"1.0\" encoding=\"utf-8\"?>";

    /// A writer reserving `capacity` bytes.
    pub fn new(capacity: usize) -> XmlWriter {
        XmlWriter {
            out: String::with_capacity(capacity),
        }
    }

    /// A writer that has written the XML declaration and reserved
    /// `body_capacity` bytes after it.
    pub fn document(body_capacity: usize) -> XmlWriter {
        let mut w = XmlWriter::new(Self::DECLARATION.len() + body_capacity);
        w.out.push_str(Self::DECLARATION);
        w
    }

    /// Appends markup or a name, unescaped.
    pub fn markup(&mut self, s: &str) -> &mut XmlWriter {
        self.out.push_str(s);
        self
    }

    /// Appends character data, escaped.
    pub fn text(&mut self, s: &str) -> &mut XmlWriter {
        escape_into(s, &mut self.out, false);
        self
    }

    /// Appends ` key="value"` with the value escaped.
    pub fn attr(&mut self, key: &str, value: &str) -> &mut XmlWriter {
        self.attr_parts(key, &[value])
    }

    /// Appends ` key="…"` whose value is `parts` joined, each escaped.
    pub fn attr_parts(&mut self, key: &str, parts: &[&str]) -> &mut XmlWriter {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
        for part in parts {
            escape_into(part, &mut self.out, true);
        }
        self.out.push('"');
        self
    }

    /// Appends `<name>text</name>`: an element with one text child,
    /// written with both tags even when the text is empty.
    pub fn leaf(&mut self, name: &str, text: &str) -> &mut XmlWriter {
        self.markup("<")
            .markup(name)
            .markup(">")
            .text(text)
            .markup("</")
            .markup(name)
            .markup(">")
    }

    /// The written document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_into(s: &str, out: &mut String, in_attr: bool) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| matches!(b, b'<' | b'>' | b'&') || (in_attr && b == b'"'))
    {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'&' => "&amp;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// One token of a document, as [`XmlReader::next`] yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// A start tag. A self-closing `<x/>` yields its `End` next.
    Start(StartTag<'a>),
    /// A run of character data (entities decoded; borrowed unless it
    /// held one) or a CDATA section (verbatim, possibly empty). Comments
    /// and processing instructions split runs but yield nothing.
    Text(Cow<'a, str>),
    /// The end of the innermost open element, with its name.
    End(&'a str),
    /// The end of the document; every later call yields it again.
    Eof,
}

/// A start tag: its name and its attributes, both read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartTag<'a> {
    name: &'a str,
    /// The tag's attribute text, already checked by the reader.
    attrs: &'a str,
}

impl<'a> StartTag<'a> {
    /// The full name, including any namespace prefix.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The name with any namespace prefix stripped.
    pub fn local_name(&self) -> &'a str {
        local_name(self.name)
    }

    /// The attributes in document order, values entity-decoded.
    pub fn attrs(&self) -> Attrs<'a> {
        Attrs { rest: self.attrs }
    }

    /// The first value of the attribute `key`, entity-decoded (what
    /// [`Element::attr`] gives).
    pub fn attr(&self, key: &str) -> Option<Cow<'a, str>> {
        self.attrs().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The attributes of a [`StartTag`].
#[derive(Debug, Clone)]
pub struct Attrs<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        // The reader checked this text when it read the tag, so each
        // step below succeeds; `?` only ends the walk.
        let s = self.rest.trim_start_matches(is_xml_space);
        let (key, s) = s.split_at(s.bytes().take_while(|&b| is_name_byte(b)).count());
        if key.is_empty() {
            return None;
        }
        let s = s
            .trim_start_matches(is_xml_space)
            .strip_prefix('=')?
            .trim_start_matches(is_xml_space);
        let quote = s.chars().next()?;
        let s = &s[1..];
        let end = s.find(quote)?;
        let raw = &s[..end];
        self.rest = &s[end + 1..];
        Some((key, unescape(raw).unwrap_or(Cow::Borrowed(raw))))
    }
}

fn is_xml_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadState {
    /// Before the document element.
    Prolog,
    /// Inside the document element.
    Content,
    /// A self-closing tag was just read; its `End` comes next.
    SelfClosed,
    /// Past the document element and what may follow it.
    Done,
    /// An error was returned; the reader reads no further.
    Failed,
}

/// A pull reader over one XML document: the crate's only tokenizer.
///
/// Each [`next`](Self::next) yields one [`XmlEvent`]. Names are slices
/// of the input, and text is decoded only when it holds an entity, so a
/// reader that picks a few fields out of a message copies only those.
/// The reader checks the whole grammar [`Element::parse`] accepts as it
/// goes (balanced tags, entities, attribute syntax, nesting up to
/// [`XML_MAX_DEPTH`], nothing but comments and processing instructions
/// after the document element) and fails with the same [`XmlError`] at
/// the same offset. A caller that wants that verdict reads through the
/// document element's `End`, which also checks what follows it.
///
/// # Examples
///
/// ```
/// use umiddle_usdl::{XmlEvent, XmlReader};
///
/// let mut r = XmlReader::new("<a x='1'><b>hi &amp; bye</b><c/></a>");
/// let root = r.root()?;
/// assert_eq!(root.attrs().next(), Some(("x", "1".into())));
/// let mut texts = Vec::new();
/// r.read_children(|r, child| {
///     texts.push((child.name(), r.read_text()?));
///     Ok(true)
/// })?;
/// assert_eq!(texts, [("b", "hi & bye".to_owned()), ("c", String::new())]);
/// assert_eq!(r.next()?, XmlEvent::Eof);
/// # Ok::<(), umiddle_usdl::XmlError>(())
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    input: &'a str,
    pos: usize,
    /// Byte offset of each open element's name, outermost first.
    open: [usize; XML_MAX_DEPTH],
    depth: usize,
    state: ReadState,
}

impl<'a> XmlReader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> XmlReader<'a> {
        XmlReader {
            input,
            pos: 0,
            open: [0; XML_MAX_DEPTH],
            depth: 0,
            state: ReadState::Prolog,
        }
    }

    /// The next event.
    ///
    /// # Errors
    ///
    /// Returns the first error in the input, as [`Element::parse`] does;
    /// every call after an error fails too.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let event = match self.state {
            ReadState::Prolog => {
                self.skip_misc(true)?;
                self.state = ReadState::Content;
                self.start_tag()
            }
            ReadState::SelfClosed => {
                self.state = ReadState::Content;
                self.close()
            }
            ReadState::Content => self.content(),
            ReadState::Done => Ok(XmlEvent::Eof),
            ReadState::Failed => Err(self.err("read past an error")),
        };
        if event.is_err() {
            self.state = ReadState::Failed;
        }
        event
    }

    /// Reads the prolog and the document element's start tag.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next); also fails if called past the start.
    pub fn root(&mut self) -> Result<StartTag<'a>, XmlError> {
        match self.next()? {
            XmlEvent::Start(tag) => Ok(tag),
            _ => Err(self.err("expected the document element")),
        }
    }

    /// Right after a `Start`: the element's direct text children joined
    /// and trimmed (what [`Element::text`] returns), reading through the
    /// element's `End`. Nested elements are read and their text dropped.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next).
    pub fn read_text(&mut self) -> Result<String, XmlError> {
        let mut first: Option<Cow<'a, str>> = None;
        let mut joined = String::new();
        let mut nested = 0usize;
        loop {
            match self.next()? {
                XmlEvent::Start(_) => nested += 1,
                XmlEvent::End(_) if nested > 0 => nested -= 1,
                XmlEvent::End(_) | XmlEvent::Eof => break,
                XmlEvent::Text(t) if nested == 0 => match first.take() {
                    None if joined.is_empty() => first = Some(t),
                    None => joined.push_str(&t),
                    Some(f) => {
                        joined.reserve(f.len() + t.len());
                        joined.push_str(&f);
                        joined.push_str(&t);
                    }
                },
                XmlEvent::Text(_) => {}
            }
        }
        Ok(match first {
            Some(Cow::Borrowed(s)) => s.trim().to_owned(),
            Some(Cow::Owned(s)) => trimmed(s),
            None => trimmed(joined),
        })
    }

    /// Right after a `Start`: calls `child` with each child element's
    /// start tag, reading through the element's `End`. `child` either
    /// reads that child through its own `End` and returns `true`, or
    /// returns `false` to have it skipped. Text children are dropped.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next), or the first error `child` returns.
    pub fn read_children(
        &mut self,
        mut child: impl FnMut(&mut XmlReader<'a>, StartTag<'a>) -> Result<bool, XmlError>,
    ) -> Result<(), XmlError> {
        loop {
            match self.next()? {
                XmlEvent::Start(tag) => {
                    if !child(self, tag)? {
                        self.skip_element()?;
                    }
                }
                XmlEvent::Text(_) => {}
                XmlEvent::End(_) | XmlEvent::Eof => return Ok(()),
            }
        }
    }

    /// Right after a child's `Start` in [`read_children`](Self::read_children):
    /// reads the child into `slot` unless an earlier child filled it, and
    /// says whether it did. So the first child of a name counts.
    ///
    /// # Errors
    ///
    /// The error `read` returns.
    pub fn read_first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut XmlReader<'a>) -> Result<T, XmlError>,
    ) -> Result<bool, XmlError> {
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(read(self)?);
        Ok(true)
    }

    /// Right after a `Start`: the text of the first child element named
    /// each of `names`, reading through the element's `End`.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next).
    pub fn read_leaves<const N: usize>(
        &mut self,
        names: [&str; N],
    ) -> Result<[Option<String>; N], XmlError> {
        let mut texts = [const { None }; N];
        self.read_children(
            |r, tag| match names.iter().position(|&n| n == tag.local_name()) {
                Some(i) => r.read_first(&mut texts[i], XmlReader::read_text),
                None => Ok(false),
            },
        )?;
        Ok(texts)
    }

    /// Right after a `Start`: `read` applied to each child element named
    /// `item` (reading it through its `End`), reading through the
    /// element's `End`.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next), or the first error `read` returns.
    pub fn read_list<T>(
        &mut self,
        item: &str,
        mut read: impl FnMut(&mut XmlReader<'a>, StartTag<'a>) -> Result<T, XmlError>,
    ) -> Result<Vec<T>, XmlError> {
        let mut items = Vec::new();
        self.read_children(|r, tag| {
            if tag.local_name() == item {
                items.push(read(r, tag)?);
            }
            Ok(tag.local_name() == item)
        })?;
        Ok(items)
    }

    /// Right after a `Start`: `read` applied to the first descendant
    /// named `local_name` in document order (reading it through its
    /// `End`), or `None`, reading through the element's `End`. Called
    /// before [`root`](Self::root), it searches the whole document, the
    /// root included, and reads to its end.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next), or the error `read` returns.
    pub fn read_descendant<T>(
        &mut self,
        local_name: &str,
        read: impl FnOnce(&mut XmlReader<'a>, StartTag<'a>) -> Result<T, XmlError>,
    ) -> Result<Option<T>, XmlError> {
        let mut read = Some(read);
        let mut out = None;
        let mut nested = 0usize;
        loop {
            match self.next()? {
                XmlEvent::Start(tag) => match read.take_if(|_| tag.local_name() == local_name) {
                    Some(read) => out = Some(read(self, tag)?),
                    None => nested += 1,
                },
                XmlEvent::End(_) if nested > 0 => nested -= 1,
                XmlEvent::End(_) | XmlEvent::Eof => return Ok(out),
                XmlEvent::Text(_) => {}
            }
        }
    }

    /// Right after a `Start`: reads through the element's `End`.
    ///
    /// # Errors
    ///
    /// As [`next`](Self::next).
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        self.read_children(|_, _| Ok(false))
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments and processing instructions (the XML
    /// declaration included) before or after the root element, and
    /// before it (`prolog`) also a `<!DOCTYPE …>`.
    fn skip_misc(&mut self, prolog: bool) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if prolog && self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (no internal subset support).
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        match find(&self.bytes()[self.pos..], end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(self.err(format!("unterminated construct, expected {end:?}")))
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// The name starting at byte `at` (an open element's).
    fn name_at(&self, at: usize) -> &'a str {
        let len = self.bytes()[at..]
            .iter()
            .take_while(|&&b| is_name_byte(b))
            .count();
        &self.input[at..at + len]
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    /// Reads a start tag at `<`, one level below the open elements.
    fn start_tag(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        if self.depth == XML_MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {XML_MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let name_at = self.pos;
        let name = self.name()?;
        let attrs_at = self.pos;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    let attrs = &self.input[attrs_at..self.pos];
                    self.pos += 1;
                    self.expect(b'>')?;
                    self.state = ReadState::SelfClosed;
                    return Ok(self.opened(name_at, name, attrs));
                }
                Some(b'>') => {
                    let attrs = &self.input[attrs_at..self.pos];
                    self.pos += 1;
                    return Ok(self.opened(name_at, name, attrs));
                }
                Some(_) => self.attribute()?,
                None => return Err(self.err("eof in start tag")),
            }
        }
    }

    fn opened(&mut self, name_at: usize, name: &'a str, attrs: &'a str) -> XmlEvent<'a> {
        self.open[self.depth] = name_at;
        self.depth += 1;
        XmlEvent::Start(StartTag { name, attrs })
    }

    /// Checks one `key="value"` attribute.
    fn attribute(&mut self) -> Result<(), XmlError> {
        self.name()?;
        self.skip_ws();
        self.expect(b'=')?;
        self.skip_ws();
        let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
        if quote != b'"' && quote != b'\'' {
            return Err(self.err("attribute value must be quoted"));
        }
        self.pos += 1;
        let start = self.pos;
        let Some(len) = self.bytes()[start..].iter().position(|&b| b == quote) else {
            self.pos = self.input.len();
            return Err(self.err("unterminated attribute value"));
        };
        self.pos = start + len + 1;
        unescape(&self.input[start..start + len])
            .map(drop)
            .map_err(|m| self.err(m))
    }

    /// Reads content up to the next event inside the open elements.
    fn content(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                let name = self.name_at(self.open[self.depth - 1]);
                if close != name {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return self.close();
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                let Some(len) = find(&self.bytes()[start..], b"]]>") else {
                    return Err(self.err(format!("expected {:?}", "]]>")));
                };
                self.pos = start + len + 3;
                return Ok(XmlEvent::Text(Cow::Borrowed(
                    &self.input[start..start + len],
                )));
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                return self.start_tag();
            } else if self.peek().is_none() {
                let name = self.name_at(self.open[self.depth - 1]);
                return Err(self.err(format!("eof inside <{name}>")));
            } else {
                let start = self.pos;
                self.pos = self.bytes()[start..]
                    .iter()
                    .position(|&b| b == b'<')
                    .map_or(self.input.len(), |i| start + i);
                let text = unescape(&self.input[start..self.pos]).map_err(|m| self.err(m))?;
                if !text.is_empty() {
                    return Ok(XmlEvent::Text(text));
                }
            }
        }
    }

    /// Closes the innermost open element; past the document element,
    /// checks that only comments and processing instructions follow.
    fn close(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        self.depth -= 1;
        let name = self.name_at(self.open[self.depth]);
        if self.depth == 0 {
            self.skip_misc(false)?;
            if self.pos != self.input.len() {
                return Err(self.err("trailing content after document element"));
            }
            self.state = ReadState::Done;
        }
        Ok(XmlEvent::End(name))
    }
}

/// The offset of the first `needle` (non-empty) in `haystack`. Not
/// `str::find`: its two-way searcher takes longer to set up than this
/// scan takes to pass a document's XML declaration.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// `s` trimmed, reusing its buffer when nothing is trimmed.
fn trimmed(s: String) -> String {
    if s.trim().len() == s.len() {
        s
    } else {
        s.trim().to_owned()
    }
}

/// Decodes the five predefined entities and numeric character
/// references, borrowing `s` when it holds none.
fn unescape(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| "unterminated entity".to_owned())?;
        let entity = &rest[1..end];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid codepoint &{entity};"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid codepoint &{entity};"))?,
                );
            }
            other => return Err(format!("unknown entity &{other};")),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `e` written through an [`XmlWriter`]: an element with no children
    /// self-closes, text is escaped.
    fn to_xml(e: &Element) -> String {
        fn write(e: &Element, w: &mut XmlWriter) {
            w.markup("<").markup(&e.name);
            for (k, v) in &e.attrs {
                w.attr(k, v);
            }
            if e.children.is_empty() {
                w.markup("/>");
                return;
            }
            w.markup(">");
            for n in &e.children {
                match n {
                    Node::Element(child) => write(child, w),
                    Node::Text(t) => {
                        w.text(t);
                    }
                }
            }
            w.markup("</").markup(&e.name).markup(">");
        }
        let mut w = XmlWriter::new(0);
        write(e, &mut w);
        w.finish()
    }

    fn element(name: &str, attrs: &[(&str, &str)], children: Vec<Node>) -> Element {
        Element {
            name: name.to_owned(),
            attrs: attrs
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            children,
        }
    }

    #[test]
    fn parses_nested_document_with_declaration() {
        let doc = Element::parse(
            r#"<?xml version="1.0"?>
            <!-- a comment -->
            <device type="clock">
              <service id="time">
                <action>GetTime</action>
                <action>SetTime</action>
              </service>
            </device>"#,
        )
        .unwrap();
        assert_eq!(doc.name(), "device");
        assert_eq!(doc.attr("type"), Some("clock"));
        let actions: Vec<String> = doc
            .child("service")
            .unwrap()
            .children_named("action")
            .map(|a| a.text())
            .collect();
        assert_eq!(actions, vec!["GetTime", "SetTime"]);
    }

    #[test]
    fn entities_decode_and_encode() {
        let doc = Element::parse(r#"<t a="&lt;&amp;&gt;">x &#60; y &#x26; z</t>"#).unwrap();
        assert_eq!(doc.attr("a"), Some("<&>"));
        assert_eq!(doc.text(), "x < y & z");
        let round = Element::parse(&to_xml(&doc)).unwrap();
        assert_eq!(doc, round);
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = Element::parse("<t><![CDATA[a <b> & c]]></t>").unwrap();
        assert_eq!(doc.text(), "a <b> & c");
    }

    #[test]
    fn namespace_prefixes_strip() {
        let doc = Element::parse(
            r#"<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
                 <s:Body><u:SetPower><Power>1</Power></u:SetPower></s:Body>
               </s:Envelope>"#,
        )
        .unwrap();
        assert_eq!(doc.local_name(), "Envelope");
        let body = doc.child("Body").unwrap();
        let action = body.children().next().unwrap();
        assert_eq!(action.local_name(), "SetPower");
        assert_eq!(action.child("Power").unwrap().text(), "1");
    }

    #[test]
    fn find_searches_depth_first() {
        let doc = Element::parse("<a><b><c>deep</c></b><c>shallow</c></a>").unwrap();
        assert_eq!(doc.find("c").unwrap().text(), "deep");
    }

    /// Verdicts, offsets and messages, recorded from the recursive-descent
    /// parser the reader replaced.
    #[test]
    fn errors_carry_offsets() {
        type Verdict = Result<&'static str, (usize, &'static str)>;
        let cases: &[(&str, Verdict)] = &[
            ("", Err((0, "expected '<'"))),
            ("   ", Err((3, "expected '<'"))),
            ("<a>", Err((3, "eof inside <a>"))),
            (
                "<a></b>",
                Err((6, "mismatched close tag: expected </a>, found </b>")),
            ),
            ("<a x=1></a>", Err((5, "attribute value must be quoted"))),
            ("<a>&unknown;</a>", Err((12, "unknown entity &unknown;"))),
            (
                "<a></a><b></b>",
                Err((7, "trailing content after document element")),
            ),
            ("< a></a>", Err((1, "expected a name"))),
            (
                "<a x=\"&#xZZ;\"/>",
                Err((13, "bad character reference &#xZZ;")),
            ),
            ("<a x=\"1\"", Err((8, "eof in start tag"))),
            ("<a x=\"1", Err((7, "unterminated attribute value"))),
            ("<a x>", Err((4, "expected '='"))),
            ("<a><![CDATA[x</a>", Err((12, "expected \"]]>\""))),
            (
                "<a><!-- c</a>",
                Err((13, "unterminated construct, expected \"-->\"")),
            ),
            (
                "<?xml version",
                Err((13, "unterminated construct, expected \"?>\"")),
            ),
            (
                "<a/>trailing",
                Err((4, "trailing content after document element")),
            ),
            (
                "<a/><!-- ok --> <?pi?> x",
                Err((23, "trailing content after document element")),
            ),
            (
                "<a>&#1114112;</a>",
                Err((13, "invalid codepoint &#1114112;")),
            ),
            ("<a>&amp</a>", Err((7, "unterminated entity"))),
            ("<a></a  >", Ok("<a/>")),
            ("<a></a x>", Err((7, "expected '>'"))),
            ("<!DOCTYPE a><a/>", Ok("<a/>")),
            ("<a><!DOCTYPE b></a>", Err((4, "expected a name"))),
            ("<a b='1' b='2'/>", Ok("<a b=\"1\" b=\"2\"/>")),
            ("<a x='a\"b'/>", Ok("<a x=\"a&quot;b\"/>")),
        ];
        for (input, want) in cases {
            let got = Element::parse(input)
                .map(|e| to_xml(&e))
                .map_err(|e| (e.offset, e.message));
            let want = want.map(str::to_owned).map_err(|(o, m)| (o, m.to_owned()));
            assert_eq!(got, want, "{input:?}");
        }
    }

    #[test]
    fn reader_yields_events_in_document_order() {
        let mut r = XmlReader::new(
            "<?xml version='1.0'?><!-- c --><r a='1' b=\"&lt;\">t1<!-- x -->t2<e/>\
             <![CDATA[]]><s:x>&amp;</s:x></r><?tail?>",
        );
        let root = r.root().unwrap();
        assert_eq!(root.name(), "r");
        let attrs: Vec<(&str, Cow<'_, str>)> = root.attrs().collect();
        assert_eq!(
            attrs,
            [("a", Cow::Borrowed("1")), ("b", Cow::Borrowed("<"))]
        );
        let mut seen = Vec::new();
        loop {
            let event = r.next().unwrap();
            seen.push(match &event {
                XmlEvent::Start(tag) => format!("<{}>", tag.local_name()),
                XmlEvent::Text(Cow::Borrowed(t)) => format!("b:{t}"),
                XmlEvent::Text(Cow::Owned(t)) => format!("o:{t}"),
                XmlEvent::End(name) => format!("</{name}>"),
                XmlEvent::Eof => break,
            });
        }
        assert_eq!(
            seen,
            ["b:t1", "b:t2", "<e>", "</e>", "b:", "<x>", "o:&", "</s:x>", "</r>"]
        );
        assert_eq!(r.next(), Ok(XmlEvent::Eof), "Eof repeats");
    }

    #[test]
    fn read_text_is_element_text() {
        let doc = "<r><a> x <b>in</b> y <![CDATA[ z ]]></a><c/><d>&lt;</d></r>";
        let dom = Element::parse(doc).unwrap();
        let mut r = XmlReader::new(doc);
        r.root().unwrap();
        for name in ["a", "c", "d"] {
            let XmlEvent::Start(tag) = r.next().unwrap() else {
                panic!("expected <{name}>");
            };
            assert_eq!(tag.name(), name);
            assert_eq!(r.read_text().unwrap(), dom.child(name).unwrap().text());
        }
        r.skip_element().unwrap();
        assert_eq!(r.next(), Ok(XmlEvent::Eof));
    }

    #[test]
    fn read_descendant_is_find() {
        let doc = "<r><a><x:b>1</x:b></a><b>2</b><c><b>3</b></c></r>";
        let dom = Element::parse(doc).unwrap();
        let mut r = XmlReader::new(doc);
        r.root().unwrap();
        let b = r.read_descendant("b", |r, _| r.read_text()).unwrap();
        assert_eq!(b, Some(dom.find("b").unwrap().text()));
        assert_eq!(b.as_deref(), Some("1"));
        assert_eq!(r.next(), Ok(XmlEvent::Eof));
        // The element itself is not its own descendant, but before the
        // root the whole document is searched.
        let mut r = XmlReader::new(doc);
        let root = r.read_descendant("r", |r, tag| r.read_leaves(["b"]).map(|b| (tag.name(), b)));
        assert_eq!(root, Ok(Some(("r", [Some("2".to_owned())]))));
        assert_eq!(r.next(), Ok(XmlEvent::Eof));
        let mut r = XmlReader::new(doc);
        r.root().unwrap();
        assert_eq!(r.read_descendant("r", |r, _| r.skip_element()), Ok(None));
        assert_eq!(r.next(), Ok(XmlEvent::Eof));
    }

    #[test]
    fn reader_fails_for_good_after_an_error() {
        let mut r = XmlReader::new("<a><b></a>");
        r.root().unwrap();
        assert!(matches!(r.next(), Ok(XmlEvent::Start(_))));
        let err = r.next().unwrap_err();
        assert_eq!(err.offset, 9);
        assert!(r.next().is_err());
        // Skipping an element still reads, and so still checks, it.
        let mut r = XmlReader::new("<a><b>&bad;</b></a>");
        r.root().unwrap();
        assert!(matches!(r.next(), Ok(XmlEvent::Start(_))));
        assert!(r.skip_element().is_err());
    }

    #[test]
    fn self_closing_and_empty_equivalent() {
        let a = Element::parse("<x/>").unwrap();
        let b = Element::parse("<x></x>").unwrap();
        assert_eq!(a, b);
        assert_eq!(to_xml(&a), "<x/>");
    }

    #[test]
    fn written_tree_round_trips() {
        let e = element(
            "root",
            &[("id", "1")],
            vec![
                Node::Element(element(
                    "leaf",
                    &[],
                    vec![Node::Text("value & more".to_owned())],
                )),
                Node::Element(element("empty", &[], Vec::new())),
            ],
        );
        let xml = to_xml(&e);
        assert_eq!(
            xml,
            "<root id=\"1\"><leaf>value &amp; more</leaf><empty/></root>"
        );
        assert_eq!(Element::parse(&xml).unwrap(), e);
        let document = format!("{}{xml}", XmlWriter::DECLARATION);
        assert_eq!(Element::parse(&document).unwrap(), e);
    }

    const NAME_HEAD: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const NAME_TAIL: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
    // Printable ASCII including characters that require escaping.
    const TEXT_CHARS: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`\
         abcdefghijklmnopqrstuvwxyz{|}~";

    fn arb_name(rng: &mut simnet::SimRng) -> String {
        let len = rng.gen_range(0usize..=8);
        rng.gen_string(NAME_HEAD, 1) + &rng.gen_string(NAME_TAIL, len)
    }

    fn arb_text(rng: &mut simnet::SimRng) -> String {
        let len = rng.gen_range(0usize..=24);
        rng.gen_string(TEXT_CHARS, len)
    }

    fn arb_element(rng: &mut simnet::SimRng, depth: u32) -> Element {
        let mut e = element(&arb_name(rng), &[], Vec::new());
        if depth == 0 || rng.gen_bool(0.4) {
            let n_attrs = rng.gen_range(0usize..3);
            for _ in 0..n_attrs {
                let k = arb_name(rng);
                // Attribute keys must be unique for equality after parse.
                if e.attr(&k).is_none() {
                    let v = arb_text(rng);
                    e.attrs.push((k, v));
                }
            }
            let text = arb_text(rng);
            if !text.trim().is_empty() {
                e.children.push(Node::Text(text.trim().to_owned()));
            }
        } else {
            let n_kids = rng.gen_range(0usize..3);
            for _ in 0..n_kids {
                let kid = arb_element(rng, depth - 1);
                e.children.push(Node::Element(kid));
            }
        }
        e
    }

    /// Any built element serializes and parses back to itself.
    #[test]
    fn write_parse_round_trip() {
        simnet::check_cases("xml_write_parse_round_trip", 256, |_, rng| {
            let e = arb_element(rng, 3);
            let xml = to_xml(&e);
            let parsed = Element::parse(&xml).unwrap();
            assert_eq!(e, parsed);
        });
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        let deepest = Element::parse(&nested(XML_MAX_DEPTH)).unwrap();
        let mut levels = 1;
        let mut e = &deepest;
        while let Some(child) = e.child("a") {
            levels += 1;
            e = child;
        }
        assert_eq!(levels, XML_MAX_DEPTH);
        let err = Element::parse(&nested(XML_MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.offset,
            3 * XML_MAX_DEPTH,
            "the error points at the first element too deep"
        );
        // Deep enough to overflow any thread's stack without the bound.
        assert!(Element::parse(&nested(200_000)).is_err());
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics() {
        simnet::check_cases("xml_parser_never_panics", 256, |_, rng| {
            // Half the cases: printable soup; other half: raw bytes
            // (lossily decoded) to hit non-ASCII paths.
            let len = rng.gen_range(0usize..256);
            let s = if rng.gen_bool(0.5) {
                rng.gen_string(TEXT_CHARS, len)
            } else {
                String::from_utf8_lossy(&rng.gen_bytes(len)).into_owned()
            };
            let _ = Element::parse(&s);
        });
    }
}
