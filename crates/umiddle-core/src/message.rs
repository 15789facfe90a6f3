//! Messages that flow along message paths in the common semantic space.

use std::fmt;

use simnet::{DetailArg, Payload, SimTime, SpanDetail, SpanId};

use crate::intern::Symbol;
use crate::mime::MimeType;

/// Wire key of [`TraceContext::queue_span`].
const QUEUE_SPAN_KEY: &str = "umiddle.queue-span";
/// Wire key of [`TraceContext::sent_at`].
const SENT_AT_KEY: &str = "umiddle.sent-ns";
/// Wire key of [`TraceContext::transport_span`].
const TRANSPORT_SPAN_KEY: &str = "umiddle.transport-span";

/// The trace context a message carries through the runtimes, as typed
/// fields. On the wire each field is one metadata entry — its key and
/// the decimal value — in sorted-key position among the application's
/// metadata, and [`UMessage::size`] counts it as those bytes, so frames
/// and buffer accounting match a message that carries the context as
/// text metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TraceContext {
    /// The open `queue.wait` span while a message copy sits in a path
    /// buffer (`umiddle.queue-span`); taken when the copy is polled.
    pub(crate) queue_span: Option<SpanId>,
    /// Emission time, stamped by the source runtime so the delivering
    /// runtime can measure end-to-end path latency (`umiddle.sent-ns`).
    pub(crate) sent_at: Option<SimTime>,
    /// The open `transport.send` span across the wire
    /// (`umiddle.transport-span`); the receiving runtime closes it.
    pub(crate) transport_span: Option<SpanId>,
}

impl TraceContext {
    /// The fields that are set, as wire entries in key order.
    fn entries(&self) -> impl Iterator<Item = (&'static str, MetaValue<'static>)> {
        [
            (QUEUE_SPAN_KEY, self.queue_span.map(|s| s.0)),
            (SENT_AT_KEY, self.sent_at.map(SimTime::as_nanos)),
            (TRANSPORT_SPAN_KEY, self.transport_span.map(|s| s.0)),
        ]
        .into_iter()
        .filter_map(|(k, v)| Some((k, MetaValue::Num(v?))))
    }

    /// Sets the field a wire key names from its decimal value; `false`
    /// for any other key. A value that is not a decimal leaves the
    /// field unset, as a receiver that cannot parse it ignores it.
    fn set(&mut self, key: &str, value: &str) -> bool {
        let n = value.parse::<u64>().ok();
        match key {
            QUEUE_SPAN_KEY => self.queue_span = n.map(SpanId),
            SENT_AT_KEY => self.sent_at = n.map(SimTime::from_nanos),
            TRANSPORT_SPAN_KEY => self.transport_span = n.map(SpanId),
            _ => return false,
        }
        true
    }
}

/// One metadata value as it is encoded: application text, or a trace
/// context number written in decimal.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MetaValue<'a> {
    Text(&'a str),
    Num(u64),
}

impl MetaValue<'_> {
    /// The encoded bytes; a number's decimal digits are written into
    /// `buf`.
    pub(crate) fn bytes<'b>(&'b self, buf: &'b mut [u8; 20]) -> &'b [u8] {
        match self {
            MetaValue::Text(s) => s.as_bytes(),
            MetaValue::Num(n) => {
                let mut n = *n;
                let mut at = buf.len();
                loop {
                    at -= 1;
                    buf[at] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                &buf[at..]
            }
        }
    }

    /// The encoded length in bytes.
    fn len(&self) -> usize {
        match self {
            MetaValue::Text(s) => s.len(),
            MetaValue::Num(n) => n.checked_ilog10().map_or(1, |d| d as usize + 1),
        }
    }
}

/// A typed message traveling through the intermediary semantic space.
///
/// A `UMessage` is what translators emit on output ports and receive on
/// input ports: a MIME-typed byte payload plus optional string metadata
/// (source device, timestamps, sequence numbers). The runtimes' trace
/// context rides beside the metadata as typed fields; its wire keys
/// (`umiddle.queue-span`, `umiddle.sent-ns`, `umiddle.transport-span`)
/// are reserved and are not text metadata.
///
/// # Examples
///
/// ```
/// use umiddle_core::UMessage;
///
/// let msg = UMessage::new("text/plain".parse()?, b"21.5".to_vec())
///     .with_meta("unit", "celsius");
/// assert_eq!(msg.meta("unit"), Some("celsius"));
/// assert_eq!(msg.body(), b"21.5");
/// # Ok::<(), umiddle_core::CoreError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct UMessage {
    mime: MimeType,
    body: Payload,
    /// Metadata entries, sorted by key with no duplicate keys. Messages
    /// carry a handful at most, so a sorted `Vec` is smaller and faster
    /// than a map.
    meta: Vec<(String, String)>,
    pub(crate) trace: TraceContext,
}

impl fmt::Debug for UMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UMessage")
            .field("mime", &self.mime)
            .field("body", &self.body)
            .field("trace", &self.trace)
            .field("meta", &MetaDebug(&self.meta))
            .finish()
    }
}

/// Formats metadata as a map, as a `BTreeMap` would.
struct MetaDebug<'a>(&'a [(String, String)]);

impl fmt::Debug for MetaDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl UMessage {
    /// Creates a message. `body` accepts anything convertible to a
    /// [`Payload`] (`Vec<u8>`, `&[u8]`, an existing `Payload`, …); passing
    /// a `Payload` shares the buffer without copying, so a message can
    /// travel native → common → native referencing one allocation.
    pub fn new(mime: MimeType, body: impl Into<Payload>) -> UMessage {
        UMessage {
            mime,
            body: body.into(),
            meta: Vec::new(),
            trace: TraceContext::default(),
        }
    }

    /// Creates a `text/plain` message from a string — the common case for
    /// control signals ("1"/"0" in the paper's UPnP light example).
    pub fn text(body: impl Into<String>) -> UMessage {
        UMessage {
            mime: MimeType::new("text", "plain").expect("static mime is valid"),
            body: Payload::from(body.into()),
            meta: Vec::new(),
            trace: TraceContext::default(),
        }
    }

    /// The message's MIME type.
    pub fn mime(&self) -> &MimeType {
        &self.mime
    }

    /// The payload bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The payload as a shared [`Payload`] view (O(1), no copy).
    pub fn body_payload(&self) -> Payload {
        self.body.clone()
    }

    /// The payload as UTF-8 text, if valid.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Total in-memory size used for buffer accounting: body plus
    /// metadata bytes, each trace-context field counted as the key and
    /// decimal value it is encoded as.
    pub fn size(&self) -> usize {
        self.body.len()
            + self
                .wire_metas()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>()
    }

    /// Adds a metadata entry (builder style).
    /// Adding a key that is already present replaces its value. A
    /// reserved trace-context key sets its typed field instead.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> UMessage {
        self.push_wire_meta(&key.into(), &value.into());
        self
    }

    /// Adds a decoded metadata entry, copying it only if it is
    /// application text (see [`UMessage::with_meta`]).
    pub(crate) fn push_wire_meta(&mut self, key: &str, value: &str) {
        if !self.trace.set(key, value) {
            match self.meta_index(key) {
                Ok(i) => value.clone_into(&mut self.meta[i].1),
                Err(i) => self.meta.insert(i, (key.to_owned(), value.to_owned())),
            }
        }
    }

    /// Metadata as it is encoded: the application's entries and the
    /// set trace-context fields, merged in key order.
    pub(crate) fn wire_metas(&self) -> impl Iterator<Item = (&str, MetaValue<'_>)> {
        let mut app = self
            .meta
            .iter()
            .map(|(k, v)| (k.as_str(), MetaValue::Text(v)))
            .peekable();
        let mut trace = self.trace.entries().peekable();
        std::iter::from_fn(move || match (app.peek(), trace.peek()) {
            (Some(a), Some(t)) if t.0 < a.0 => trace.next(),
            (Some(_), _) => app.next(),
            (None, _) => trace.next(),
        })
    }

    fn meta_index(&self, key: &str) -> Result<usize, usize> {
        self.meta.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Looks up a metadata entry.
    pub fn meta(&self, key: &str) -> Option<&str> {
        let i = self.meta_index(key).ok()?;
        Some(self.meta[i].1.as_str())
    }

    /// All application metadata entries, sorted by key (the trace
    /// context is not among them).
    pub fn metas(&self) -> impl Iterator<Item = (&str, &str)> {
        self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Consumes the message and returns its payload (no copy).
    pub fn into_body(self) -> Payload {
        self.body
    }
}

impl fmt::Display for UMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}B]", self.mime, self.body.len())
    }
}

impl UMessage {
    /// The span detail of this message leaving output `port`,
    /// `port={port} {self}`, built without allocating.
    pub(crate) fn detail(&self, port: Symbol) -> SpanDetail {
        let (ty, subtype) = self.mime.parts();
        SpanDetail::new(
            &["port=", " [", "/", " ", "B]"],
            [
                DetailArg::Str(port.as_static()),
                DetailArg::Str(ty.as_static()),
                DetailArg::Str(subtype.as_static()),
                DetailArg::U64(self.body.len() as u64),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_constructor_sets_plain() {
        let m = UMessage::text("on");
        assert_eq!(m.mime().to_string(), "text/plain");
        assert_eq!(m.body_text(), Some("on"));
    }

    #[test]
    fn span_detail_renders_as_display() {
        let m = UMessage::new("Image/JPEG".parse().unwrap(), vec![0; 1400]);
        let port = Symbol::new("image-out");
        assert_eq!(m.detail(port).to_string(), format!("port={port} {m}"));
    }

    #[test]
    fn trace_context_is_not_text_metadata() {
        let mut m = UMessage::text("x").with_meta("a", "1");
        m.trace.sent_at = Some(SimTime::from_nanos(10));
        m.trace.queue_span = Some(SpanId(3));
        assert_eq!(m.meta("umiddle.sent-ns"), None);
        assert_eq!(m.metas().count(), 1);
        // Counted as "umiddle.queue-span" + "3", "umiddle.sent-ns" + "10".
        assert_eq!(m.size(), 1 + 2 + 18 + 1 + 15 + 2);

        // The reserved keys set the typed fields; a non-decimal value
        // leaves the field unset.
        let n = UMessage::text("x").with_meta("umiddle.sent-ns", "10");
        assert_eq!(n.trace.sent_at, Some(SimTime::from_nanos(10)));
        let bad = UMessage::text("x").with_meta("umiddle.sent-ns", "soon");
        assert_eq!(bad.trace.sent_at, None);
        assert_eq!(bad.metas().count(), 0);
    }

    #[test]
    fn size_counts_meta() {
        let m = UMessage::text("ab").with_meta("k", "vv");
        assert_eq!(m.size(), 2 + 1 + 2);
    }

    #[test]
    fn meta_is_a_sorted_map() {
        let m = UMessage::text("x")
            .with_meta("b", "2")
            .with_meta("c", "3")
            .with_meta("a", "1")
            .with_meta("b", "two");
        let entries: Vec<_> = m.metas().collect();
        assert_eq!(entries, [("a", "1"), ("b", "two"), ("c", "3")]);
        assert_eq!(m.size(), 1 + 1 + 1 + 1 + 3 + 1 + 1);
        assert_eq!(
            format!("{m:?}").split_once("meta: ").map(|(_, m)| m),
            Some(r#"{"a": "1", "b": "two", "c": "3"} }"#)
        );
        // Equality ignores insertion order, as for a map.
        let same = UMessage::text("x")
            .with_meta("c", "3")
            .with_meta("b", "two")
            .with_meta("a", "1");
        assert_eq!(m, same);
        assert_eq!(m.meta("a"), Some("1"));
        assert_eq!(m.meta("d"), None);
    }

    #[test]
    fn non_utf8_body_text_is_none() {
        let m = UMessage::new(
            "application/octet-stream".parse().unwrap(),
            vec![0xff, 0xfe],
        );
        assert_eq!(m.body_text(), None);
        assert_eq!(m.into_body(), vec![0xff, 0xfe]);
    }
}
