//! A small, dependency-free XML subset parser and writer.
//!
//! uMiddle's ecosystem is XML-heavy: USDL documents, UPnP device
//! descriptions, SOAP envelopes, GENA notifications and web-service
//! descriptions all share this codec. The supported subset is: elements
//! with attributes, text content, CDATA sections, comments, processing
//! instructions/XML declarations (skipped), and the five predefined
//! entities (`&lt; &gt; &amp; &quot; &apos;`) plus decimal/hex character
//! references. Namespaces are treated lexically (prefixes are part of the
//! name; [`Element::local_name`] strips them).
//!
//! The parser is total: any input either yields a document or an
//! [`XmlError`] with a byte offset — it never panics. Elements nest at
//! most [`XML_MAX_DEPTH`] deep, so hostile nesting cannot exhaust the stack
//! of the recursive descent.

use std::error::Error;
use std::fmt;

/// Deepest element nesting [`Element::parse`] accepts. Every bundled
/// USDL, SOAP and description document nests under ten levels; the
/// bound only stops input built to overflow the parser's stack (an
/// unoptimized build spends about 4.5 KiB of stack per level, so 128
/// levels fit a 2 MiB thread stack with room to spare).
pub const XML_MAX_DEPTH: usize = 128;

/// An XML element: name, attributes, and children (elements and text).
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
pub enum Node {
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
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The element's full name, including any namespace prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name with any namespace prefix stripped (`s:Envelope` →
    /// `Envelope`).
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Element {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(Node::Element(child));
        self
    }

    /// Adds text content (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.children.push(Node::Text(text.into()));
        self
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

    /// All child nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.children
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

    /// Parses a document and returns its root element.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input (unterminated tags,
    /// mismatched close tags, bad entities, trailing garbage, elements
    /// nested deeper than [`XML_MAX_DEPTH`]).
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut p = Parser {
            input: input.as_bytes(),
            pos: 0,
        };
        p.skip_prolog()?;
        let root = p.parse_element(1)?;
        p.skip_misc()?;
        if p.pos != p.input.len() {
            return Err(p.err("trailing content after document element"));
        }
        Ok(root)
    }

    /// Serializes to a compact XML string (no declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with an XML declaration, as protocols like SOAP expect.
    pub fn to_document(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out, true);
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for n in &self.children {
            match n {
                Node::Element(e) => e.write(out),
                Node::Text(t) => escape_into(t, out, false),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

fn escape_into(s: &str, out: &mut String, in_attr: bool) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if in_attr => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips the XML declaration, processing instructions, comments and
    /// whitespace before the root element.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' (no internal subset support).
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        let bytes = end.as_bytes();
        while self.pos < self.input.len() {
            if self.input[self.pos..].starts_with(bytes) {
                self.pos += bytes.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!("unterminated construct, expected {end:?}")))
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    /// Parses one element, `depth` levels below the document (the root
    /// is at depth 1).
    fn parse_element(&mut self, depth: usize) -> Result<Element, XmlError> {
        if depth > XML_MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {XML_MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(name.clone());
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.peek().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.pos += 1;
                    let value = decode_entities(&raw).map_err(|m| self.err(m))?;
                    element.attrs.push((key, value));
                }
                None => return Err(self.err("eof in start tag")),
            }
        }
        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.err(format!(
                        "mismatched close tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                let end = self.find_str("]]>")?;
                let text = String::from_utf8_lossy(&self.input[start..end]).into_owned();
                self.pos = end + 3;
                element.children.push(Node::Text(text));
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element(depth + 1)?;
                element.children.push(Node::Element(child));
            } else if self.peek().is_none() {
                return Err(self.err(format!("eof inside <{name}>")));
            } else {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                let text = decode_entities(&raw).map_err(|m| self.err(m))?;
                if !text.is_empty() {
                    element.children.push(Node::Text(text));
                }
            }
        }
    }

    fn find_str(&self, needle: &str) -> Result<usize, XmlError> {
        let bytes = needle.as_bytes();
        let mut i = self.pos;
        while i + bytes.len() <= self.input.len() {
            if self.input[i..].starts_with(bytes) {
                return Ok(i);
            }
            i += 1;
        }
        Err(self.err(format!("expected {needle:?}")))
    }
}

/// Decodes the five predefined entities and numeric character references.
fn decode_entities(s: &str) -> Result<String, String> {
    if !s.contains('&') {
        return Ok(s.to_owned());
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
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let round = Element::parse(&doc.to_xml()).unwrap();
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

    #[test]
    fn errors_carry_offsets() {
        for bad in [
            "<a>",
            "<a></b>",
            "<a x=1></a>",
            "<a>&unknown;</a>",
            "<a></a><b></b>",
            "",
            "< a></a>",
        ] {
            let e = Element::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn self_closing_and_empty_equivalent() {
        let a = Element::parse("<x/>").unwrap();
        let b = Element::parse("<x></x>").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_xml(), "<x/>");
    }

    #[test]
    fn builder_round_trips() {
        let e = Element::new("root")
            .with_attr("id", "1")
            .with_child(Element::new("leaf").with_text("value & more"))
            .with_child(Element::new("empty"));
        let parsed = Element::parse(&e.to_xml()).unwrap();
        assert_eq!(e, parsed);
        assert!(e.to_document().starts_with("<?xml"));
        assert_eq!(Element::parse(&e.to_document()).unwrap(), e);
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
        if depth == 0 || rng.gen_bool(0.4) {
            let mut e = Element::new(arb_name(rng));
            let n_attrs = rng.gen_range(0usize..3);
            for _ in 0..n_attrs {
                let k = arb_name(rng);
                // Attribute keys must be unique for equality after parse.
                if e.attr(&k).is_none() {
                    let v = arb_text(rng);
                    e = e.with_attr(k, v);
                }
            }
            let text = arb_text(rng);
            if !text.trim().is_empty() {
                e = e.with_text(text.trim().to_owned());
            }
            e
        } else {
            let mut e = Element::new(arb_name(rng));
            let n_kids = rng.gen_range(0usize..3);
            for _ in 0..n_kids {
                let kid = arb_element(rng, depth - 1);
                e = e.with_child(kid);
            }
            e
        }
    }

    /// Any built element serializes and parses back to itself.
    #[test]
    fn write_parse_round_trip() {
        simnet::check_cases("xml_write_parse_round_trip", 256, |_, rng| {
            let e = arb_element(rng, 3);
            let xml = e.to_xml();
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
