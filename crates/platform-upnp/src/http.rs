//! A minimal HTTP/1.0 codec over simnet streams.
//!
//! UPnP uses HTTP everywhere: description fetches are GETs, SOAP control
//! is POST, GENA eventing uses SUBSCRIBE/NOTIFY. This module provides the
//! message types, an incremental parser tolerant of arbitrary stream
//! chunking, and serializers. One request per connection (HTTP/1.0
//! semantics, `Connection: close`), which matches the era of the paper's
//! CyberLink stack.

use std::collections::BTreeMap;
use std::fmt;

use simnet::Payload;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method: `GET`, `POST`, `SUBSCRIBE`, `NOTIFY`, …
    pub method: String,
    /// Request path (`/description.xml`).
    pub path: String,
    /// Headers with case-insensitive keys (stored lowercase).
    pub headers: BTreeMap<String, String>,
    /// Body bytes (`Content-Length` is derived automatically). A shared
    /// [`Payload`], so a SOAP/GENA body can carry a `UMessage` payload
    /// without copying.
    pub body: Payload,
}

impl HttpRequest {
    /// Creates a request with no headers or body.
    pub fn new(method: &str, path: &str) -> HttpRequest {
        HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: BTreeMap::new(),
            body: Payload::new(),
        }
    }

    /// Adds a header (builder style). Keys are lowercased.
    pub fn with_header(mut self, key: &str, value: impl Into<String>) -> HttpRequest {
        self.headers.insert(key.to_ascii_lowercase(), value.into());
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
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Serializes to wire bytes as a shared [`Payload`] (freeze, not a
    /// copy), so a queued or retried request clones in O(1).
    pub fn to_bytes(&self) -> Payload {
        let mut out = format!("{} {} HTTP/1.0\r\n", self.method, self.path).into_bytes();
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        Payload::from_vec(out)
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({}B)", self.method, self.path, self.body.len())
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 500, …).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers with lowercase keys.
    pub headers: BTreeMap<String, String>,
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
            reason: reason.to_owned(),
            headers: BTreeMap::new(),
            body: Payload::new(),
        }
    }

    /// A 200 response carrying an XML body.
    pub fn xml(body: String) -> HttpResponse {
        HttpResponse::new(200)
            .with_header("content-type", "text/xml; charset=\"utf-8\"")
            .with_body(body.into_bytes())
    }

    /// Adds a header (builder style). Keys are lowercased.
    pub fn with_header(mut self, key: &str, value: impl Into<String>) -> HttpResponse {
        self.headers.insert(key.to_ascii_lowercase(), value.into());
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
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Serializes to wire bytes as a shared [`Payload`].
    pub fn to_bytes(&self) -> Payload {
        let mut out = format!("HTTP/1.0 {} {}\r\n", self.status, self.reason).into_bytes();
        for (k, v) in &self.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("content-length: {}\r\n\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(&self.body);
        Payload::from_vec(out)
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
    /// buffered bytes.
    #[allow(clippy::type_complexity)]
    pub fn take_message(&mut self) -> Option<Result<HttpMessage, String>> {
        let header_end = find_subsequence(&self.buf, b"\r\n\r\n")?;
        let header_text = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let mut lines = header_text.split("\r\n");
        let first = lines.next().unwrap_or_default().to_owned();
        let mut headers = BTreeMap::new();
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
            }
        }
        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
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

        let parts: Vec<&str> = first.splitn(3, ' ').collect();
        if first.starts_with("HTTP/") {
            if parts.len() < 2 {
                return Some(Err(format!("bad status line {first:?}")));
            }
            let status: u16 = match parts[1].parse() {
                Ok(s) => s,
                Err(_) => return Some(Err(format!("bad status code in {first:?}"))),
            };
            Some(Ok(HttpMessage::Response(HttpResponse {
                status,
                reason: parts.get(2).unwrap_or(&"").to_string(),
                headers,
                body,
            })))
        } else {
            if parts.len() < 3 {
                return Some(Err(format!("bad request line {first:?}")));
            }
            Some(Ok(HttpMessage::Request(HttpRequest {
                method: parts[0].to_owned(),
                path: parts[1].to_owned(),
                headers,
                body,
            })))
        }
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
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
                assert_eq!(r.method, "POST");
                assert_eq!(r.path, "/control");
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
                assert_eq!(r1.path, "/a");
                assert_eq!(r2.path, "/b");
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
                Some(Ok(HttpMessage::Request(r))) if r.path == "/next"
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
