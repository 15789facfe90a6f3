//! A minimal HTTP/1.0 codec over simnet streams.
//!
//! UPnP uses HTTP everywhere: description fetches are GETs, SOAP control
//! is POST, GENA eventing uses SUBSCRIBE/NOTIFY. This module provides the
//! message types, an incremental parser tolerant of arbitrary stream
//! chunking, and serializers. One request per connection (HTTP/1.0
//! semantics, `Connection: close`), which matches the era of the paper's
//! CyberLink stack.
//!
//! A received head is read in place: the method, path, reason and header
//! values of a parsed message are spans of the received bytes, resolved
//! on access, and header lookup scans the head's lines. A built message
//! holds constants and owned values, and [`HttpRequest::to_bytes`] /
//! [`HttpResponse::to_bytes`] write head and body into one buffer of the
//! exact size.
//!
//! [`HttpConns`] is the one connection table every HTTP speaker keeps:
//! outbound exchanges tagged with the caller's request, one-way sends and
//! accepted connections, each with its [`HttpAccumulator`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use simnet::{Addr, Ctx, IntMap, Payload, StreamEvent, StreamId};

/// Text in a message head.
#[derive(Debug, Clone)]
enum Text {
    /// Set by a constructor or builder.
    Fixed(Cow<'static, str>),
    /// Bytes `start..end` of the received message, whose head was
    /// checked as UTF-8 when it was read.
    Span(usize, usize),
}

/// The header block of a message.
#[derive(Debug, Clone)]
enum Headers {
    /// Set by `with_header`: lowercase keys, sorted and unique.
    Built(Vec<(Cow<'static, str>, Cow<'static, str>)>),
    /// The lines after a received start line, looked up in place.
    Received(Text),
}

/// What a message's head texts resolve against, and its headers.
#[derive(Debug, Clone)]
struct Head {
    /// The received message that [`Text::Span`]s index; `None` when built.
    message: Option<Payload>,
    headers: Headers,
}

impl Head {
    fn built() -> Head {
        Head {
            message: None,
            headers: Headers::Built(Vec::new()),
        }
    }

    fn text<'s>(&'s self, text: &'s Text) -> &'s str {
        match text {
            Text::Fixed(s) => s,
            Text::Span(start, end) => self
                .message
                .as_ref()
                .and_then(|m| m.get(*start..*end))
                .and_then(|b| std::str::from_utf8(b).ok())
                .unwrap_or_default(),
        }
    }

    fn with_header(&mut self, key: &'static str, value: Cow<'static, str>) {
        let key = if key.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(key.to_ascii_lowercase())
        } else {
            Cow::Borrowed(key)
        };
        if let Headers::Received(_) = self.headers {
            let entries = self.entries();
            self.headers = Headers::Built(
                entries
                    .into_iter()
                    .map(|(k, v)| (Cow::Owned(k), Cow::Owned(v)))
                    .collect(),
            );
        }
        if let Headers::Built(entries) = &mut self.headers {
            match entries.binary_search_by(|(k, _)| k.as_ref().cmp(key.as_ref())) {
                Ok(i) => entries[i].1 = value,
                Err(i) => entries.insert(i, (key, value)),
            }
        }
    }

    fn header(&self, key: &str) -> Option<&str> {
        match &self.headers {
            Headers::Built(entries) => entries
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(key))
                .map(|(_, v)| v.as_ref()),
            Headers::Received(lines) => header_line(self.text(lines), key),
        }
    }

    /// Calls `f` with each header as `to_bytes` writes it: lowercase
    /// keys in sorted order, the last value of a repeated key.
    fn for_each_header(&self, mut f: impl FnMut(&str, &str)) {
        match &self.headers {
            Headers::Built(entries) => {
                for (k, v) in entries {
                    f(k, v);
                }
            }
            Headers::Received(lines) => {
                let mut sorted = BTreeMap::new();
                for (k, v) in crlf_lines(self.text(lines)).filter_map(|l| l.split_once(':')) {
                    sorted.insert(k.trim().to_ascii_lowercase(), v.trim());
                }
                for (k, v) in &sorted {
                    f(k, v);
                }
            }
        }
    }

    /// The headers as `(key, value)` pairs in `to_bytes` order.
    fn entries(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.for_each_header(|k, v| out.push((k.to_owned(), v.to_owned())));
        out
    }

    /// Serializes `start` (the start line's pieces), the headers, the
    /// derived `content-length` and `body` into one exact-size buffer.
    fn write(&self, start: &[&str], body: &[u8]) -> Payload {
        let mut len = start.iter().map(|s| s.len()).sum::<usize>() + 2;
        self.for_each_header(|k, v| len += k.len() + v.len() + 4);
        let mut digits = [0; 20];
        let length = decimal(body.len() as u64, &mut digits);
        len += CONTENT_LENGTH.len() + 2 + length.len() + 4 + body.len();
        let mut out = Vec::with_capacity(len);
        for piece in start {
            out.extend_from_slice(piece.as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        self.for_each_header(|k, v| {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        });
        out.extend_from_slice(CONTENT_LENGTH.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(length.as_bytes());
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(body);
        Payload::from_vec(out)
    }
}

const CONTENT_LENGTH: &str = "content-length";

/// `n` in decimal, written into the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// The offset of the first CRLF in `text`.
fn find_crlf(text: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = text.get(from..)?.iter().position(|&b| b == b'\n') {
        let at = from + i;
        if at > 0 && text[at - 1] == b'\r' {
            return Some(at - 1);
        }
        from = at + 1;
    }
    None
}

/// `text` split at each CRLF, as `str::split("\r\n")` splits it.
fn crlf_lines(mut text: &str) -> impl Iterator<Item = &str> {
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        match find_crlf(text.as_bytes()) {
            Some(at) => {
                let line = &text[..at];
                text = &text[at + 2..];
                Some(line)
            }
            None => {
                done = true;
                Some(text)
            }
        }
    })
}

/// Splits a head into its start line and the header lines after it.
pub(crate) fn split_start_line(head: &str) -> (&str, &str) {
    match find_crlf(head.as_bytes()) {
        Some(at) => (&head[..at], &head[at + 2..]),
        None => (head, &head[head.len()..]),
    }
}

/// The value, trimmed, of the last of `lines` whose key (before the
/// first `:`, trimmed) is `key` in any ASCII case.
pub(crate) fn header_line<'h>(lines: &'h str, key: &str) -> Option<&'h str> {
    crlf_lines(lines)
        .filter_map(|line| line.split_once(':'))
        .filter(|(k, _)| k.trim().eq_ignore_ascii_case(key))
        .last()
        .map(|(_, v)| v.trim())
}

/// An HTTP request.
#[derive(Clone)]
pub struct HttpRequest {
    method: Text,
    path: Text,
    head: Head,
    /// Body bytes (`Content-Length` is derived automatically). A shared
    /// [`Payload`], so a SOAP/GENA body can carry a `UMessage` payload
    /// without copying.
    pub body: Payload,
}

impl HttpRequest {
    /// Creates a request with no headers or body.
    pub fn new(method: &'static str, path: impl Into<Cow<'static, str>>) -> HttpRequest {
        HttpRequest {
            method: Text::Fixed(Cow::Borrowed(method)),
            path: Text::Fixed(path.into()),
            head: Head::built(),
            body: Payload::new(),
        }
    }

    /// Method: `GET`, `POST`, `SUBSCRIBE`, `NOTIFY`, …
    pub fn method(&self) -> &str {
        self.head.text(&self.method)
    }

    /// Request path (`/description.xml`).
    pub fn path(&self) -> &str {
        self.head.text(&self.path)
    }

    /// Adds a header (builder style). Keys are lowercased; a repeated
    /// key keeps its last value.
    pub fn with_header(
        mut self,
        key: &'static str,
        value: impl Into<Cow<'static, str>>,
    ) -> HttpRequest {
        self.head.with_header(key, value.into());
        self
    }

    /// Sets the body (builder style). Passing a `Payload` shares the
    /// buffer without copying.
    pub fn with_body(mut self, body: impl Into<Payload>) -> HttpRequest {
        self.body = body.into();
        self
    }

    /// Looks up a header by case-insensitive name.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.head.header(key)
    }

    /// Serializes to wire bytes as a shared [`Payload`] (freeze, not a
    /// copy), so a queued or retried request clones in O(1). Headers
    /// are written lowercased in sorted order, then `content-length`.
    pub fn to_bytes(&self) -> Payload {
        self.head
            .write(&[self.method(), " ", self.path(), " HTTP/1.0"], &self.body)
    }
}

impl PartialEq for HttpRequest {
    fn eq(&self, other: &HttpRequest) -> bool {
        self.method() == other.method()
            && self.path() == other.path()
            && self.body == other.body
            && self.head.entries() == other.head.entries()
    }
}

impl Eq for HttpRequest {}

impl fmt::Debug for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpRequest")
            .field("method", &self.method())
            .field("path", &self.path())
            .field("headers", &self.head.entries())
            .field("body", &self.body)
            .finish()
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}B)",
            self.method(),
            self.path(),
            self.body.len()
        )
    }
}

/// An HTTP response.
#[derive(Clone)]
pub struct HttpResponse {
    /// Status code (200, 404, 500, …).
    pub status: u16,
    reason: Text,
    head: Head,
    /// Body bytes, as a shared [`Payload`].
    pub body: Payload,
}

impl HttpResponse {
    /// Creates a response with a standard reason phrase.
    pub fn new(status: u16) -> HttpResponse {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            412 => "Precondition Failed",
            500 => "Internal Server Error",
            _ => "Unknown",
        };
        HttpResponse {
            status,
            reason: Text::Fixed(Cow::Borrowed(reason)),
            head: Head::built(),
            body: Payload::new(),
        }
    }

    /// A 200 response carrying an XML body.
    pub fn xml(body: String) -> HttpResponse {
        HttpResponse::new(200)
            .with_header("content-type", "text/xml; charset=\"utf-8\"")
            .with_body(body.into_bytes())
    }

    /// Reason phrase.
    pub fn reason(&self) -> &str {
        self.head.text(&self.reason)
    }

    /// Adds a header (builder style). Keys are lowercased; a repeated
    /// key keeps its last value.
    pub fn with_header(
        mut self,
        key: &'static str,
        value: impl Into<Cow<'static, str>>,
    ) -> HttpResponse {
        self.head.with_header(key, value.into());
        self
    }

    /// Sets the body (builder style). Passing a `Payload` shares the
    /// buffer without copying.
    pub fn with_body(mut self, body: impl Into<Payload>) -> HttpResponse {
        self.body = body.into();
        self
    }

    /// Looks up a header by case-insensitive name.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.head.header(key)
    }

    /// Serializes to wire bytes as a shared [`Payload`].
    pub fn to_bytes(&self) -> Payload {
        let mut digits = [0; 20];
        let status = decimal(u64::from(self.status), &mut digits);
        self.head
            .write(&["HTTP/1.0 ", status, " ", self.reason()], &self.body)
    }
}

impl PartialEq for HttpResponse {
    fn eq(&self, other: &HttpResponse) -> bool {
        self.status == other.status
            && self.reason() == other.reason()
            && self.body == other.body
            && self.head.entries() == other.head.entries()
    }
}

impl Eq for HttpResponse {}

impl fmt::Debug for HttpResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpResponse")
            .field("status", &self.status)
            .field("reason", &self.reason())
            .field("headers", &self.head.entries())
            .field("body", &self.body)
            .finish()
    }
}

/// Incremental parser for one HTTP message arriving over a stream.
#[derive(Debug, Default)]
pub struct HttpAccumulator {
    buf: Vec<u8>,
}

/// A parsed HTTP message: request or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpMessage {
    /// A request (first line starts with a method).
    Request(HttpRequest),
    /// A response (first line starts with `HTTP/`).
    Response(HttpResponse),
}

impl HttpAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> HttpAccumulator {
        HttpAccumulator::default()
    }

    /// Feeds received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Feeds a received stream chunk. Header parsing needs contiguous
    /// text, so the chunk is appended to the line buffer; the *body* is
    /// still handed out as a zero-copy slice by
    /// [`take_message`](Self::take_message).
    pub fn push_payload(&mut self, chunk: Payload) {
        self.buf.extend_from_slice(&chunk);
    }

    /// Attempts to extract one complete message. Returns `None` until the
    /// headers and full body (per `Content-Length`) have arrived. Messages
    /// that fail to parse return `Some(Err(reason))` and consume the
    /// buffered bytes. The head is read in place: a head that is not
    /// UTF-8 is read as its lossy decoding.
    #[allow(clippy::type_complexity)]
    pub fn take_message(&mut self) -> Option<Result<HttpMessage, String>> {
        let header_end = find_head_end(&self.buf)?;
        let head = &self.buf[..header_end];
        let content_length: usize = match std::str::from_utf8(head) {
            Ok(text) => content_length(text),
            Err(_) => content_length(&String::from_utf8_lossy(head)),
        };
        let body_start = header_end + 4;
        // A length no buffer can hold (past `isize::MAX`, a `Vec`'s limit,
        // or past `usize` itself) can never complete: reject it now.
        let Some(total) = body_start
            .checked_add(content_length)
            .filter(|&total| total <= isize::MAX as usize)
        else {
            self.buf.clear();
            return Some(Err(format!("impossible content-length {content_length}")));
        };
        if self.buf.len() < total {
            return None;
        }
        // Move the consumed message behind an Arc and slice the body out
        // of it — no per-body copy, and any following pipelined message
        // stays in `buf`.
        let rest = self.buf.split_off(total);
        let message = Payload::from_vec(std::mem::replace(&mut self.buf, rest));
        let body = message.slice(body_start..total);
        let parts = match std::str::from_utf8(&message[..header_end]) {
            Ok(text) => read_head(text, |part| {
                // Every part is a subslice of `text`, which starts the
                // message.
                let start = part.as_ptr() as usize - text.as_ptr() as usize;
                Text::Span(start, start + part.len())
            }),
            Err(_) => read_head(&String::from_utf8_lossy(&message[..header_end]), |part| {
                Text::Fixed(Cow::Owned(part.to_owned()))
            }),
        };
        Some(parts.map(|parts| parts.into_message(message, body)))
    }
}

/// The `Content-Length` of a head, 0 when absent or malformed.
fn content_length(head: &str) -> usize {
    header_line(split_start_line(head).1, CONTENT_LENGTH)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A received head's start-line fields and header block.
enum HeadParts {
    Request {
        method: Text,
        path: Text,
        lines: Text,
    },
    Response {
        status: u16,
        reason: Text,
        lines: Text,
    },
}

impl HeadParts {
    fn into_message(self, message: Payload, body: Payload) -> HttpMessage {
        let head = |lines| Head {
            message: Some(message),
            headers: Headers::Received(lines),
        };
        match self {
            HeadParts::Request {
                method,
                path,
                lines,
            } => HttpMessage::Request(HttpRequest {
                method,
                path,
                head: head(lines),
                body,
            }),
            HeadParts::Response {
                status,
                reason,
                lines,
            } => HttpMessage::Response(HttpResponse {
                status,
                reason,
                head: head(lines),
                body,
            }),
        }
    }
}

/// Reads a head's start line; `text` makes each part (a subslice of
/// `head`) a [`Text`].
fn read_head(head: &str, text: impl Fn(&str) -> Text) -> Result<HeadParts, String> {
    let (first, lines) = split_start_line(head);
    let mut parts = first.splitn(3, ' ');
    let (p0, p1, p2) = (parts.next(), parts.next(), parts.next());
    let lines = text(lines);
    if first.starts_with("HTTP/") {
        let Some(code) = p1 else {
            return Err(format!("bad status line {first:?}"));
        };
        let Ok(status) = code.parse() else {
            return Err(format!("bad status code in {first:?}"));
        };
        Ok(HeadParts::Response {
            status,
            reason: text(p2.unwrap_or(&first[first.len()..])),
            lines,
        })
    } else {
        let (Some(method), Some(path), Some(_)) = (p0, p1, p2) else {
            return Err(format!("bad request line {first:?}"));
        };
        Ok(HeadParts::Request {
            method: text(method),
            path: text(path),
            lines,
        })
    }
}

/// The offset of the blank line (`\r\n\r\n`) that ends a head.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let at = from + find_crlf(bytes.get(from..)?)?;
        if bytes[at + 2..].starts_with(b"\r\n") {
            return Some(at);
        }
        from = at + 2;
    }
}

/// One connection of an [`HttpConns`] table.
#[derive(Debug)]
enum Conn<T> {
    /// An outbound request, parked until `Connected` and sent once;
    /// `acc` reads the response.
    Exchange {
        tag: T,
        request: Option<Payload>,
        acc: HttpAccumulator,
    },
    /// An outbound request that expects no response: sent on
    /// `Connected`, then the stream is closed.
    OneWay(Payload),
    /// A connection accepted on local port `port`.
    Inbound { port: u16, acc: HttpAccumulator },
}

/// What an [`HttpConns`] table hands its owner.
#[derive(Debug)]
pub enum HttpEvent<T> {
    /// An exchange's first full message arrived: its entry is gone and
    /// its stream closed. `None` when the message was malformed or not a
    /// response.
    Response(T, Option<HttpResponse>),
    /// An exchange's connection closed or failed before a full message.
    Failed(T),
    /// A request on a connection accepted on local `port`, for the owner
    /// to answer on the stream it arrived on.
    Request {
        /// The local port the connection was accepted on.
        port: u16,
        /// The request.
        request: HttpRequest,
    },
}

/// A process's HTTP connections, keyed by stream. Each outbound exchange
/// carries the caller's tag `T` and ends in exactly one
/// [`HttpEvent::Response`] or [`HttpEvent::Failed`] with it, or in `Err`
/// from [`exchange`](Self::exchange) when the connect fails at once.
#[derive(Debug)]
pub struct HttpConns<T> {
    conns: IntMap<StreamId, Conn<T>>,
}

impl<T> Default for HttpConns<T> {
    fn default() -> Self {
        HttpConns {
            conns: IntMap::default(),
        }
    }
}

impl<T> HttpConns<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connects to `to` and sends `request` once connected; the response
    /// or failure comes back from [`on_stream`](Self::on_stream) with
    /// `tag`.
    ///
    /// # Errors
    ///
    /// Returns `tag` when the connect fails at once (no route).
    pub fn exchange(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: Addr,
        request: Payload,
        tag: T,
    ) -> Result<(), T> {
        let Ok(stream) = ctx.connect(to) else {
            return Err(tag);
        };
        self.conns.insert(
            stream,
            Conn::Exchange {
                tag,
                request: Some(request),
                acc: HttpAccumulator::new(),
            },
        );
        Ok(())
    }

    /// Connects to `to`, sends `request` once connected and closes,
    /// reading no response. Returns `false` when the connect fails at
    /// once.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, to: Addr, request: Payload) -> bool {
        let Ok(stream) = ctx.connect(to) else {
            return false;
        };
        self.conns.insert(stream, Conn::OneWay(request));
        true
    }

    /// Feeds one of the owner's stream events; returns what it completed.
    pub fn on_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: StreamEvent,
    ) -> Vec<HttpEvent<T>> {
        let mut out = Vec::new();
        match event {
            StreamEvent::Accepted { local_port, .. } => {
                self.conns.insert(
                    stream,
                    Conn::Inbound {
                        port: local_port,
                        acc: HttpAccumulator::new(),
                    },
                );
            }
            StreamEvent::Connected => match self.conns.get_mut(&stream) {
                Some(Conn::Exchange { request, .. }) => {
                    if let Some(request) = request.take() {
                        let _ = ctx.stream_send(stream, request);
                    }
                }
                Some(Conn::OneWay(_)) => {
                    if let Some(Conn::OneWay(request)) = self.conns.remove(&stream) {
                        let _ = ctx.stream_send(stream, request);
                        ctx.stream_close(stream);
                    }
                }
                _ => {}
            },
            StreamEvent::Data(data) => match self.conns.get_mut(&stream) {
                Some(Conn::Exchange { acc, .. }) => {
                    acc.push_payload(data);
                    if let Some(message) = acc.take_message() {
                        if let Some(Conn::Exchange { tag, .. }) = self.conns.remove(&stream) {
                            ctx.stream_close(stream);
                            let response = match message {
                                Ok(HttpMessage::Response(response)) => Some(response),
                                _ => None,
                            };
                            out.push(HttpEvent::Response(tag, response));
                        }
                    }
                }
                Some(Conn::Inbound { port, acc }) => {
                    acc.push_payload(data);
                    while let Some(message) = acc.take_message() {
                        if let Ok(HttpMessage::Request(request)) = message {
                            out.push(HttpEvent::Request {
                                port: *port,
                                request,
                            });
                        }
                    }
                }
                _ => {}
            },
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                if let Some(Conn::Exchange { tag, .. }) = self.conns.remove(&stream) {
                    out.push(HttpEvent::Failed(tag));
                }
            }
            StreamEvent::Writable => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = HttpRequest::new("POST", "/control")
            .with_header("SOAPAction", "\"urn:svc#SetPower\"")
            .with_body(b"<xml/>".to_vec());
        let mut acc = HttpAccumulator::new();
        acc.push(&req.to_bytes());
        match acc.take_message().unwrap().unwrap() {
            HttpMessage::Request(r) => {
                assert_eq!(r.method(), "POST");
                assert_eq!(r.path(), "/control");
                assert_eq!(r.header("soapaction"), Some("\"urn:svc#SetPower\""));
                assert_eq!(r.body, b"<xml/>");
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn response_round_trip_chunked_arbitrarily() {
        let resp = HttpResponse::xml("<root>hello</root>".to_owned());
        let bytes = resp.to_bytes();
        let mut acc = HttpAccumulator::new();
        for b in &bytes {
            assert!(acc.take_message().is_none());
            acc.push(&[*b]);
        }
        match acc.take_message().unwrap().unwrap() {
            HttpMessage::Response(r) => {
                assert_eq!(r.status, 200);
                assert_eq!(r.body, b"<root>hello</root>");
                assert!(r.header("content-type").unwrap().contains("xml"));
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn two_messages_back_to_back() {
        let a = HttpRequest::new("GET", "/a").to_bytes();
        let b = HttpRequest::new("GET", "/b").to_bytes();
        let mut acc = HttpAccumulator::new();
        acc.push(&a);
        acc.push(&b);
        let m1 = acc.take_message().unwrap().unwrap();
        let m2 = acc.take_message().unwrap().unwrap();
        assert!(acc.take_message().is_none());
        match (m1, m2) {
            (HttpMessage::Request(r1), HttpMessage::Request(r2)) => {
                assert_eq!(r1.path(), "/a");
                assert_eq!(r2.path(), "/b");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_body_waits() {
        let req = HttpRequest::new("POST", "/x").with_body(vec![1, 2, 3, 4]);
        let bytes = req.to_bytes();
        let mut acc = HttpAccumulator::new();
        acc.push(&bytes[..bytes.len() - 1]);
        assert!(acc.take_message().is_none());
        acc.push(&bytes[bytes.len() - 1..]);
        assert!(acc.take_message().is_some());
    }

    #[test]
    fn malformed_first_line_is_an_error_not_a_panic() {
        let mut acc = HttpAccumulator::new();
        acc.push(b"HTTP/1.0\r\ncontent-length: 0\r\n\r\n");
        assert!(acc.take_message().unwrap().is_err());
    }

    #[test]
    fn impossible_content_length_is_an_error_not_a_panic() {
        // usize::MAX overflows `body_start + len`; isize::MAX does not,
        // but no Vec can hold that many bytes.
        for len in ["18446744073709551615", "9223372036854775807"] {
            let mut acc = HttpAccumulator::new();
            acc.push(format!("HTTP/1.1 200 OK\r\ncontent-length: {len}\r\n\r\nbody").as_bytes());
            assert!(acc.take_message().unwrap().is_err(), "content-length {len}");
            assert!(acc.take_message().is_none(), "the bad message was consumed");
            acc.push(&HttpRequest::new("GET", "/next").to_bytes());
            assert!(matches!(
                acc.take_message(),
                Some(Ok(HttpMessage::Request(r))) if r.path() == "/next"
            ));
        }
    }

    /// Any request with arbitrary body round-trips.
    #[test]
    fn request_body_round_trip() {
        simnet::check_cases("http_request_body_round_trip", 256, |_, rng| {
            let len = rng.gen_range(0usize..512);
            let body = rng.gen_bytes(len);
            let req = HttpRequest::new("POST", "/p").with_body(body.clone());
            let mut acc = HttpAccumulator::new();
            acc.push(&req.to_bytes());
            match acc.take_message().unwrap().unwrap() {
                HttpMessage::Request(r) => assert_eq!(r.body, body),
                other => panic!("{other:?}"),
            }
        });
    }

    /// Random bytes never panic the accumulator.
    #[test]
    fn accumulator_never_panics() {
        simnet::check_cases("http_accumulator_never_panics", 256, |_, rng| {
            let len = rng.gen_range(0usize..256);
            let bytes = rng.gen_bytes(len);
            let mut acc = HttpAccumulator::new();
            acc.push(&bytes);
            let _ = acc.take_message();
        });
    }
}
