//! Messages that flow along message paths in the common semantic space.

use std::fmt;

use simnet::Payload;

use crate::mime::MimeType;

/// A typed message traveling through the intermediary semantic space.
///
/// A `UMessage` is what translators emit on output ports and receive on
/// input ports: a MIME-typed byte payload plus optional string metadata
/// (source device, timestamps, sequence numbers).
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
}

impl fmt::Debug for UMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UMessage")
            .field("mime", &self.mime)
            .field("body", &self.body)
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
        }
    }

    /// Creates a `text/plain` message from a string — the common case for
    /// control signals ("1"/"0" in the paper's UPnP light example).
    pub fn text(body: impl Into<String>) -> UMessage {
        UMessage {
            mime: MimeType::new("text", "plain").expect("static mime is valid"),
            body: Payload::from(body.into()),
            meta: Vec::new(),
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
    /// metadata bytes.
    pub fn size(&self) -> usize {
        self.body.len()
            + self
                .meta
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>()
    }

    /// Adds a metadata entry (builder style).
    /// Adding a key that is already present replaces its value.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> UMessage {
        let key = key.into();
        let value = value.into();
        match self.meta_index(&key) {
            Ok(i) => self.meta[i].1 = value,
            Err(i) => self.meta.insert(i, (key, value)),
        }
        self
    }

    fn meta_index(&self, key: &str) -> Result<usize, usize> {
        self.meta.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Looks up a metadata entry.
    pub fn meta(&self, key: &str) -> Option<&str> {
        let i = self.meta_index(key).ok()?;
        Some(self.meta[i].1.as_str())
    }

    /// Removes and returns a metadata entry. Used by the runtime to
    /// strip transport-internal keys (queue/transport span ids) before
    /// a message reaches application code.
    pub fn take_meta(&mut self, key: &str) -> Option<String> {
        let i = self.meta_index(key).ok()?;
        Some(self.meta.remove(i).1)
    }

    /// All metadata entries, sorted by key.
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
        let mut m = m;
        assert_eq!(m.take_meta("b").as_deref(), Some("two"));
        assert_eq!(m.take_meta("b"), None);
        assert_eq!(m.meta("a"), Some("1"));
        assert_eq!(m.meta("b"), None);
        assert_eq!(m.metas().count(), 2);
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
