//! Wire codec for inter-runtime protocol messages.
//!
//! uMiddle runtimes exchange two kinds of traffic: *directory* messages
//! (probes, deltas, digests, snapshots — multicast or unicast datagrams) and
//! *transport* messages (path payloads — over streams). Both use this
//! compact little-endian binary encoding. The codec is total: any byte
//! sequence either decodes to a message or yields a
//! [`CoreError::Decode`](crate::CoreError::Decode); it never panics.

use std::collections::VecDeque;

use simnet::{Addr, NodeId, Payload, PayloadBuilder};

use crate::error::{CoreError, CoreResult};
use crate::id::{ConnectionId, PortRef, RuntimeId, TranslatorId};
use crate::intern;
use crate::message::UMessage;
use crate::mime::MimeType;
use crate::profile::TranslatorProfile;
use crate::qos::{OverflowPolicy, QosPolicy, RateLimit};
use crate::query::Query;
use crate::shape::{Direction, PerceptionType, PortKind, PortSpec, Shape};

/// Messages exchanged between uMiddle runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A runtime booted and asks peers for their digests; responses are
    /// unicast to `reply_to`.
    Probe {
        /// Directory address of the probing runtime.
        reply_to: Addr,
    },
    /// A path payload destined for an input port of a translator hosted by
    /// the receiving runtime.
    PathMessage {
        /// The connection this message travels on.
        connection: ConnectionId,
        /// Destination input port.
        dst: PortRef,
        /// The payload.
        msg: UMessage,
    },
    /// A connect request forwarded to the runtime hosting the source port
    /// (connections always live at the source's home runtime).
    ConnectRequest {
        /// Correlation token chosen by the requesting runtime.
        token: u64,
        /// Directory address to send the [`WireMessage::ConnectReply`] to.
        reply_to: Addr,
        /// Source output port.
        src: PortRef,
        /// Static port target or dynamic query template.
        target: WireTarget,
        /// QoS policy for the new connection.
        qos: QosPolicy,
    },
    /// Reply to a forwarded connect request.
    ConnectReply {
        /// Correlation token from the request.
        token: u64,
        /// The created connection on success.
        result: Result<ConnectionId, String>,
    },
    /// Tears down a connection owned by the receiving runtime.
    DisconnectRequest {
        /// The connection to remove.
        connection: ConnectionId,
    },
    /// A run of versioned directory mutations from one origin runtime
    /// (the delta-gossip plane). Op `i` carries version `first + i`; a
    /// receiver already at version `v` applies only ops with version
    /// `> v`, and a receiver below `first - 1` has a gap and must
    /// request the missing range instead.
    Delta {
        /// The runtime whose advertised set changed.
        origin: RuntimeId,
        /// Transport address of the origin (where its translators live).
        home: Addr,
        /// Version of the first op in `ops`.
        first: u64,
        /// The mutations, in version order.
        ops: Vec<DeltaOp>,
    },
    /// Low-frequency anti-entropy summary: per-origin version watermarks.
    /// In the steady state a runtime digests only its own entry, so the
    /// periodic cost is a few dozen bytes regardless of table size;
    /// receivers that detect a gap unicast a [`WireMessage::DeltaRequest`]
    /// to `reply_to`.
    Digest {
        /// The summarizing runtime.
        origin: RuntimeId,
        /// Directory address delta requests should be sent to.
        reply_to: Addr,
        /// Transport address of the origin.
        home: Addr,
        /// `(origin, highest version)` watermarks the sender vouches for.
        vector: Vec<(RuntimeId, u64)>,
    },
    /// Asks an origin to re-send its deltas starting at version `from`
    /// (anti-entropy repair after a detected gap, or a late-join sync).
    DeltaRequest {
        /// The origin whose deltas are missing.
        origin: RuntimeId,
        /// First missing version.
        from: u64,
        /// Directory address of the requester.
        reply_to: Addr,
    },
    /// Full state of one origin at `version`, sent when the requested
    /// delta range has been compacted out of the origin's log. The
    /// receiver replaces its view of that origin wholesale.
    Snapshot {
        /// The runtime whose state this is.
        origin: RuntimeId,
        /// Transport address of the origin.
        home: Addr,
        /// The origin's version as of this snapshot.
        version: u64,
        /// Every profile the origin currently advertises.
        profiles: Vec<TranslatorProfile>,
    },
}

/// One versioned mutation of an origin's advertised translator set
/// (payload of [`WireMessage::Delta`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// A profile appeared or was updated.
    Add(TranslatorProfile),
    /// A translator was removed.
    Remove(TranslatorId),
}

/// Serializable connect target (mirrors the runtime API's target type).
#[derive(Debug, Clone, PartialEq)]
pub enum WireTarget {
    /// A specific input port.
    Port(PortRef),
    /// A query template, evaluated adaptively against the directory.
    Query(Query),
}

// Tags 1 and 2 are retired (the deleted full-refresh protocol's
// advertisement and bye). Do not reuse them: frames from a runtime still
// speaking that protocol must fail to decode, not decode as something else.
const TAG_PROBE: u8 = 3;
const TAG_PATH: u8 = 4;
const TAG_CONNECT_REQ: u8 = 5;
const TAG_CONNECT_REPLY: u8 = 6;
const TAG_DISCONNECT: u8 = 7;
const TAG_DELTA: u8 = 8;
const TAG_DIGEST: u8 = 9;
const TAG_DELTA_REQ: u8 = 10;
const TAG_SNAPSHOT: u8 = 11;

const OP_ADD: u8 = 0;
const OP_REMOVE: u8 = 1;

const KIND_DIGITAL: u8 = 0;
const KIND_PHYSICAL: u8 = 1;

impl WireMessage {
    /// Encodes the message to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.out.into_vec()
    }

    /// Encodes the message into a shared [`Payload`] (one allocation, no
    /// trailing copy).
    pub fn encode_payload(&self) -> Payload {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.out.freeze()
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            WireMessage::Probe { reply_to } => {
                w.u8(TAG_PROBE);
                encode_addr(w, *reply_to);
            }
            WireMessage::PathMessage {
                connection,
                dst,
                msg,
            } => {
                w.u8(TAG_PATH);
                w.u32(connection.runtime.0);
                w.u32(connection.local);
                encode_translator_id(w, dst.translator);
                w.str(&dst.port);
                encode_umessage(w, msg);
            }
            WireMessage::ConnectRequest {
                token,
                reply_to,
                src,
                target,
                qos,
            } => {
                w.u8(TAG_CONNECT_REQ);
                w.u64(*token);
                encode_addr(w, *reply_to);
                encode_translator_id(w, src.translator);
                w.str(&src.port);
                match target {
                    WireTarget::Port(p) => {
                        w.u8(0);
                        encode_translator_id(w, p.translator);
                        w.str(&p.port);
                    }
                    WireTarget::Query(q) => {
                        w.u8(1);
                        encode_query(w, q);
                    }
                }
                encode_qos(w, qos);
            }
            WireMessage::ConnectReply { token, result } => {
                w.u8(TAG_CONNECT_REPLY);
                w.u64(*token);
                match result {
                    Ok(conn) => {
                        w.u8(0);
                        w.u32(conn.runtime.0);
                        w.u32(conn.local);
                    }
                    Err(e) => {
                        w.u8(1);
                        w.str(e);
                    }
                }
            }
            WireMessage::DisconnectRequest { connection } => {
                w.u8(TAG_DISCONNECT);
                w.u32(connection.runtime.0);
                w.u32(connection.local);
            }
            WireMessage::Delta {
                origin,
                home,
                first,
                ops,
            } => {
                w.u8(TAG_DELTA);
                w.u32(origin.0);
                encode_addr(w, *home);
                w.u64(*first);
                w.u16(ops.len() as u16);
                for op in ops {
                    match op {
                        DeltaOp::Add(profile) => {
                            w.u8(OP_ADD);
                            encode_profile(w, profile);
                        }
                        DeltaOp::Remove(id) => {
                            w.u8(OP_REMOVE);
                            encode_translator_id(w, *id);
                        }
                    }
                }
            }
            WireMessage::Digest {
                origin,
                reply_to,
                home,
                vector,
            } => {
                w.u8(TAG_DIGEST);
                w.u32(origin.0);
                encode_addr(w, *reply_to);
                encode_addr(w, *home);
                w.u16(vector.len() as u16);
                for (rt, version) in vector {
                    w.u32(rt.0);
                    w.u64(*version);
                }
            }
            WireMessage::DeltaRequest {
                origin,
                from,
                reply_to,
            } => {
                w.u8(TAG_DELTA_REQ);
                w.u32(origin.0);
                w.u64(*from);
                encode_addr(w, *reply_to);
            }
            WireMessage::Snapshot {
                origin,
                home,
                version,
                profiles,
            } => {
                w.u8(TAG_SNAPSHOT);
                w.u32(origin.0);
                encode_addr(w, *home);
                w.u64(*version);
                w.u32(profiles.len() as u32);
                for p in profiles {
                    encode_profile(w, p);
                }
            }
        }
    }

    /// Decodes a message from bytes. Byte-slice bodies are copied into
    /// fresh payloads; use [`WireMessage::decode_payload`] when the input
    /// is already a [`Payload`] to keep message bodies zero-copy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] on truncated or malformed input.
    pub fn decode(bytes: &[u8]) -> CoreResult<WireMessage> {
        Self::decode_reader(Reader::new(bytes))
    }

    /// Decodes a message from a shared [`Payload`]; any embedded
    /// [`UMessage`] body becomes a zero-copy sub-slice of `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] on truncated or malformed input.
    pub fn decode_payload(payload: &Payload) -> CoreResult<WireMessage> {
        Self::decode_reader(Reader::with_backing(payload))
    }

    fn decode_reader(mut r: Reader<'_>) -> CoreResult<WireMessage> {
        let tag = r.u8()?;
        let msg = match tag {
            TAG_PROBE => WireMessage::Probe {
                reply_to: decode_addr(&mut r)?,
            },
            TAG_PATH => WireMessage::PathMessage {
                connection: ConnectionId::new(RuntimeId(r.u32()?), r.u32()?),
                dst: {
                    let t = decode_translator_id(&mut r)?;
                    let port = r.str_ref()?;
                    PortRef::new(t, port)
                },
                msg: decode_umessage(&mut r)?,
            },
            TAG_CONNECT_REQ => WireMessage::ConnectRequest {
                token: r.u64()?,
                reply_to: decode_addr(&mut r)?,
                src: {
                    let t = decode_translator_id(&mut r)?;
                    let port = r.str()?;
                    PortRef::new(t, port)
                },
                target: match r.u8()? {
                    0 => {
                        let t = decode_translator_id(&mut r)?;
                        let port = r.str()?;
                        WireTarget::Port(PortRef::new(t, port))
                    }
                    1 => WireTarget::Query(decode_query(&mut r, 0)?),
                    other => return Err(CoreError::Decode(format!("unknown target tag {other}"))),
                },
                qos: decode_qos(&mut r)?,
            },
            TAG_CONNECT_REPLY => WireMessage::ConnectReply {
                token: r.u64()?,
                result: match r.u8()? {
                    0 => Ok(ConnectionId::new(RuntimeId(r.u32()?), r.u32()?)),
                    1 => Err(r.str()?),
                    other => return Err(CoreError::Decode(format!("unknown result tag {other}"))),
                },
            },
            TAG_DISCONNECT => WireMessage::DisconnectRequest {
                connection: ConnectionId::new(RuntimeId(r.u32()?), r.u32()?),
            },
            TAG_DELTA => {
                let origin = RuntimeId(r.u32()?);
                let home = decode_addr(&mut r)?;
                let first = r.u64()?;
                let n = r.u16()? as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(match r.u8()? {
                        OP_ADD => DeltaOp::Add(decode_profile(&mut r)?),
                        OP_REMOVE => DeltaOp::Remove(decode_translator_id(&mut r)?),
                        other => return Err(CoreError::Decode(format!("unknown op tag {other}"))),
                    });
                }
                WireMessage::Delta {
                    origin,
                    home,
                    first,
                    ops,
                }
            }
            TAG_DIGEST => {
                let origin = RuntimeId(r.u32()?);
                let reply_to = decode_addr(&mut r)?;
                let home = decode_addr(&mut r)?;
                let n = r.u16()? as usize;
                let mut vector = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    vector.push((RuntimeId(r.u32()?), r.u64()?));
                }
                WireMessage::Digest {
                    origin,
                    reply_to,
                    home,
                    vector,
                }
            }
            TAG_DELTA_REQ => WireMessage::DeltaRequest {
                origin: RuntimeId(r.u32()?),
                from: r.u64()?,
                reply_to: decode_addr(&mut r)?,
            },
            TAG_SNAPSHOT => {
                let origin = RuntimeId(r.u32()?);
                let home = decode_addr(&mut r)?;
                let version = r.u64()?;
                let n = r.u32()? as usize;
                let mut profiles = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    profiles.push(decode_profile(&mut r)?);
                }
                WireMessage::Snapshot {
                    origin,
                    home,
                    version,
                    profiles,
                }
            }
            other => return Err(CoreError::Decode(format!("unknown tag {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Encodes with a `u32` length prefix, for framing on a byte stream.
    /// The prefix slot is reserved up front and patched afterwards, so the
    /// whole frame is one allocation with no body copy.
    pub fn encode_framed(&self) -> Payload {
        let mut w = Writer::new();
        let slot = w.out.reserve_u32_le();
        self.encode_into(&mut w);
        let body_len = (w.out.len() - 4) as u32;
        w.out.patch_u32_le(slot, body_len);
        w.out.freeze()
    }
}

/// Incremental decoder of length-prefixed [`WireMessage`]s from a byte
/// stream, tolerant of arbitrary chunking.
///
/// Internally a cursor over a queue of shared [`Payload`] chunks: popping
/// a frame consumes O(frame) work regardless of how many frames are still
/// buffered (the old implementation shifted the whole buffer per frame,
/// making bulk decode O(n²)). A frame contained in a single chunk is
/// extracted as a zero-copy sub-slice; frames spanning chunk boundaries
/// are assembled with one copy.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    chunks: VecDeque<Payload>,
    total: usize,
    /// Decode polls made against this decoder ([`next`](FrameDecoder::next)
    /// or [`drain_frames`](FrameDecoder::drain_frames) calls) — the
    /// regression meter for per-frame re-polling on buffers that already
    /// hold several complete frames.
    polls: u64,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feeds received bytes (copied into a fresh chunk; prefer
    /// [`FrameDecoder::push_payload`] for data already in a `Payload`).
    pub fn push(&mut self, bytes: &[u8]) {
        self.push_payload(Payload::copy_from_slice(bytes));
    }

    /// Feeds a received [`Payload`] chunk without copying.
    pub fn push_payload(&mut self, chunk: Payload) {
        if chunk.is_empty() {
            return;
        }
        self.total += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.total
    }

    /// Reads the 4-byte length prefix across chunk boundaries.
    fn peek_len(&self) -> usize {
        let mut hdr = [0u8; 4];
        let mut filled = 0;
        for c in &self.chunks {
            let take = (4 - filled).min(c.len());
            hdr[filled..filled + take].copy_from_slice(&c[..take]);
            filled += take;
            if filled == 4 {
                break;
            }
        }
        debug_assert_eq!(filled, 4, "peek_len needs 4 buffered bytes");
        u32::from_le_bytes(hdr) as usize
    }

    /// Removes the next `n` bytes and returns them as one `Payload` —
    /// zero-copy when they sit in a single chunk.
    fn take(&mut self, n: usize) -> Payload {
        debug_assert!(n <= self.total, "take within buffered bytes");
        self.total -= n;
        if n == 0 {
            return Payload::new();
        }
        let front = self.chunks.front_mut().expect("buffered bytes exist");
        if front.len() > n {
            return front.split_to(n);
        }
        if front.len() == n {
            return self.chunks.pop_front().expect("checked non-empty");
        }
        // Frame spans chunks: assemble once, O(frame).
        let mut out = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let front = self.chunks.front_mut().expect("take within total");
            if front.len() <= remaining {
                remaining -= front.len();
                out.extend_from_slice(front);
                self.chunks.pop_front();
            } else {
                out.extend_from_slice(&front[..remaining]);
                front.advance(remaining);
                remaining = 0;
            }
        }
        Payload::from_vec(out)
    }

    /// Pops the next complete message, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] if a complete frame fails to decode
    /// (the frame is consumed, so decoding can continue).
    #[allow(clippy::should_implement_trait)] // framer convention, not an Iterator
    pub fn next(&mut self) -> CoreResult<Option<WireMessage>> {
        self.polls += 1;
        self.next_inner()
    }

    fn next_inner(&mut self) -> CoreResult<Option<WireMessage>> {
        if self.total < 4 {
            return Ok(None);
        }
        let len = self.peek_len();
        if self.total < 4 + len {
            return Ok(None);
        }
        let _prefix = self.take(4);
        let frame = self.take(len);
        WireMessage::decode_payload(&frame).map(Some)
    }

    /// Decodes *every* complete frame currently buffered in one poll,
    /// appending the per-frame results to `out` in arrival order, and
    /// returns how many were appended. A malformed frame is consumed and
    /// reported as an `Err` entry; decoding continues with the next
    /// frame, matching a caller looping [`next`](FrameDecoder::next).
    ///
    /// This is the fix for the one-frame-per-poll pattern: a wire buffer
    /// that already holds N complete frames costs one poll, not N.
    pub fn drain_frames(&mut self, out: &mut Vec<CoreResult<WireMessage>>) -> usize {
        self.polls += 1;
        let before = out.len();
        loop {
            match self.next_inner() {
                Ok(Some(msg)) => out.push(Ok(msg)),
                Ok(None) => break,
                Err(e) => out.push(Err(e)),
            }
        }
        out.len() - before
    }

    /// Cumulative decode polls (see the field doc).
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Writer {
    out: PayloadBuilder,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            out: PayloadBuilder::new(),
        }
    }
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.u16_le(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.u32_le(v);
    }
    fn u64(&mut self, v: u64) {
        self.out.u64_le(v);
    }
    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let n = bytes.len().min(u16::MAX as usize);
        self.u16(n as u16);
        self.out.extend_from_slice(&bytes[..n]);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.out.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding from a shared buffer, byte-array fields are returned
    /// as zero-copy sub-slices of this payload instead of fresh copies.
    backing: Option<&'a Payload>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            backing: None,
        }
    }
    fn with_backing(payload: &'a Payload) -> Reader<'a> {
        Reader {
            buf: payload.as_slice(),
            pos: 0,
            backing: Some(payload),
        }
    }
    fn take(&mut self, n: usize) -> CoreResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(CoreError::Decode("truncated".to_owned()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> CoreResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> CoreResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> CoreResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> CoreResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn str(&mut self) -> CoreResult<String> {
        self.str_ref().map(str::to_owned)
    }
    /// A string field, borrowed from the frame.
    fn str_ref(&mut self) -> CoreResult<&'a str> {
        let len = self.u16()? as usize;
        let b = self.take(len)?;
        std::str::from_utf8(b).map_err(|_| CoreError::Decode("invalid utf-8".to_owned()))
    }
    fn skip_str(&mut self) -> CoreResult<()> {
        let len = self.u16()? as usize;
        self.take(len).map(drop)
    }
    fn bytes(&mut self) -> CoreResult<Payload> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let s = self.take(len)?;
        Ok(match self.backing {
            Some(p) => p.slice(start..start + len),
            None => Payload::copy_from_slice(s),
        })
    }
    fn finish(&self) -> CoreResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CoreError::Decode(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Composite encoders
// ---------------------------------------------------------------------

fn encode_addr(w: &mut Writer, addr: Addr) {
    w.u32(addr.node.index() as u32);
    w.u16(addr.port);
}

fn decode_addr(r: &mut Reader<'_>) -> CoreResult<Addr> {
    let node = NodeId::from_index(r.u32()? as usize);
    let port = r.u16()?;
    Ok(Addr::new(node, port))
}

fn encode_translator_id(w: &mut Writer, id: TranslatorId) {
    w.u32(id.runtime.0);
    w.u32(id.local);
}

fn decode_translator_id(r: &mut Reader<'_>) -> CoreResult<TranslatorId> {
    Ok(TranslatorId::new(RuntimeId(r.u32()?), r.u32()?))
}

fn encode_port_kind(w: &mut Writer, kind: &PortKind) {
    match kind {
        PortKind::Digital(m) => {
            w.u8(KIND_DIGITAL);
            w.str(&m.to_string());
        }
        PortKind::Physical { perception, media } => {
            w.u8(KIND_PHYSICAL);
            w.str(&perception.to_string());
            w.str(media);
        }
    }
}

fn decode_port_kind(r: &mut Reader<'_>) -> CoreResult<PortKind> {
    match r.u8()? {
        KIND_DIGITAL => {
            let m: MimeType = r.str()?.parse()?;
            Ok(PortKind::Digital(m))
        }
        KIND_PHYSICAL => {
            let perception: PerceptionType = r.str()?.parse()?;
            let media = r.str()?;
            Ok(PortKind::physical(perception, &media))
        }
        other => Err(CoreError::Decode(format!("unknown port kind {other}"))),
    }
}

fn encode_shape(w: &mut Writer, shape: &Shape) {
    w.u16(shape.ports().len() as u16);
    for p in shape.ports() {
        w.str(&p.name);
        w.u8(match p.direction {
            Direction::Input => 0,
            Direction::Output => 1,
        });
        encode_port_kind(w, &p.kind);
    }
}

fn decode_shape(r: &mut Reader<'_>) -> CoreResult<Shape> {
    let n = r.u16()? as usize;
    let mut ports = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = r.str()?;
        let direction = match r.u8()? {
            0 => Direction::Input,
            1 => Direction::Output,
            other => return Err(CoreError::Decode(format!("unknown direction {other}"))),
        };
        let kind = decode_port_kind(r)?;
        ports.push(PortSpec {
            name,
            direction,
            kind,
        });
    }
    Shape::from_ports(ports).map_err(|e| CoreError::Decode(e.to_string()))
}

fn encode_profile(w: &mut Writer, p: &TranslatorProfile) {
    encode_translator_id(w, p.id());
    w.str(p.name());
    w.str(p.platform());
    encode_shape(w, p.shape());
    let attrs: Vec<_> = p.attrs().collect();
    w.u16(attrs.len() as u16);
    for (k, v) in attrs {
        w.str(k);
        w.str(v);
    }
}

/// Decodes one profile, hash-consed per thread: every runtime in a host
/// process decodes the same gossiped bytes, so a profile whose exact
/// encoding decoded successfully before on this thread is returned as a
/// clone of that result (an `Arc` bump; see [`crate::intern`]). Profiles
/// are immutable and compare by value, so a hit is indistinguishable
/// from a fresh decode; bytes never seen before — hostile ones included
/// — go through the full validating decoder.
fn decode_profile(r: &mut Reader<'_>) -> CoreResult<TranslatorProfile> {
    let start = r.pos;
    let Ok(len) = profile_extent(&r.buf[start..]) else {
        // Truncated or malformed: the full decoder reports why.
        return decode_profile_fields(r);
    };
    let key = &r.buf[start..start + len];
    if let Some(profile) = intern::cached_profile(key) {
        r.pos += len;
        return Ok(profile);
    }
    let profile = decode_profile_fields(r)?;
    if r.pos - start == len {
        intern::store_profile(key, &profile);
    }
    Ok(profile)
}

/// Byte length of the profile encoded at the front of `buf`: walks the
/// same fields as [`decode_profile_fields`], bounds-checked by
/// [`Reader::take`], without decoding anything (and, on well-formed
/// input, without allocating).
fn profile_extent(buf: &[u8]) -> CoreResult<usize> {
    let mut r = Reader::new(buf);
    r.take(8)?; // translator id
    r.skip_str()?; // name
    r.skip_str()?; // platform
    for _ in 0..r.u16()? {
        r.skip_str()?; // port name
        r.take(1)?; // direction
        match r.u8()? {
            KIND_DIGITAL => r.skip_str()?,
            KIND_PHYSICAL => {
                r.skip_str()?;
                r.skip_str()?;
            }
            other => return Err(CoreError::Decode(format!("unknown port kind {other}"))),
        }
    }
    for _ in 0..r.u16()? {
        r.skip_str()?;
        r.skip_str()?;
    }
    Ok(r.pos)
}

fn decode_profile_fields(r: &mut Reader<'_>) -> CoreResult<TranslatorProfile> {
    let id = decode_translator_id(r)?;
    let name = r.str()?;
    let platform = r.str()?;
    let shape = decode_shape(r)?;
    let mut builder = TranslatorProfile::builder(id, name)
        .platform(platform)
        .shape(shape);
    let n = r.u16()? as usize;
    for _ in 0..n {
        let k = r.str()?;
        let v = r.str()?;
        builder = builder.attr(k, v);
    }
    Ok(builder.build())
}

/// Maximum query nesting depth accepted by the decoder (defense against
/// stack exhaustion from hostile input).
const MAX_QUERY_DEPTH: u32 = 32;

fn encode_query(w: &mut Writer, q: &Query) {
    match q {
        Query::All => w.u8(0),
        Query::None => w.u8(1),
        Query::HasPort { direction, kind } => {
            w.u8(2);
            w.u8(match direction {
                Direction::Input => 0,
                Direction::Output => 1,
            });
            encode_port_kind(w, kind);
        }
        Query::NameIs(s) => {
            w.u8(3);
            w.str(s);
        }
        Query::NameContains(s) => {
            w.u8(4);
            w.str(s);
        }
        Query::Platform(s) => {
            w.u8(5);
            w.str(s);
        }
        Query::Attr { key, value } => {
            w.u8(6);
            w.str(key);
            w.str(value);
        }
        Query::HasAttr(key) => {
            w.u8(7);
            w.str(key);
        }
        Query::And(a, b) => {
            w.u8(8);
            encode_query(w, a);
            encode_query(w, b);
        }
        Query::Or(a, b) => {
            w.u8(9);
            encode_query(w, a);
            encode_query(w, b);
        }
        Query::Not(a) => {
            w.u8(10);
            encode_query(w, a);
        }
    }
}

fn decode_query(r: &mut Reader<'_>, depth: u32) -> CoreResult<Query> {
    if depth > MAX_QUERY_DEPTH {
        return Err(CoreError::Decode("query too deep".to_owned()));
    }
    Ok(match r.u8()? {
        0 => Query::All,
        1 => Query::None,
        2 => Query::HasPort {
            direction: match r.u8()? {
                0 => Direction::Input,
                1 => Direction::Output,
                other => return Err(CoreError::Decode(format!("unknown direction {other}"))),
            },
            kind: decode_port_kind(r)?,
        },
        3 => Query::NameIs(r.str()?),
        4 => Query::NameContains(r.str()?),
        5 => Query::Platform(r.str()?),
        6 => Query::Attr {
            key: r.str()?,
            value: r.str()?,
        },
        7 => Query::HasAttr(r.str()?),
        8 => Query::And(
            Box::new(decode_query(r, depth + 1)?),
            Box::new(decode_query(r, depth + 1)?),
        ),
        9 => Query::Or(
            Box::new(decode_query(r, depth + 1)?),
            Box::new(decode_query(r, depth + 1)?),
        ),
        10 => Query::Not(Box::new(decode_query(r, depth + 1)?)),
        other => return Err(CoreError::Decode(format!("unknown query tag {other}"))),
    })
}

fn encode_qos(w: &mut Writer, q: &QosPolicy) {
    match q.capacity_bytes {
        Some(cap) => {
            w.u8(1);
            w.u64(cap as u64);
        }
        None => w.u8(0),
    }
    w.u8(match q.overflow {
        OverflowPolicy::Unbounded => 0,
        OverflowPolicy::DropNewest => 1,
        OverflowPolicy::DropOldest => 2,
    });
    match q.rate {
        Some(rate) => {
            w.u8(1);
            w.u64(rate.bytes_per_second);
            w.u64(rate.burst_bytes);
        }
        None => w.u8(0),
    }
}

fn decode_qos(r: &mut Reader<'_>) -> CoreResult<QosPolicy> {
    let capacity_bytes = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        other => return Err(CoreError::Decode(format!("unknown capacity tag {other}"))),
    };
    let overflow = match r.u8()? {
        0 => OverflowPolicy::Unbounded,
        1 => OverflowPolicy::DropNewest,
        2 => OverflowPolicy::DropOldest,
        other => return Err(CoreError::Decode(format!("unknown overflow tag {other}"))),
    };
    let rate = match r.u8()? {
        0 => None,
        1 => Some(RateLimit {
            bytes_per_second: r.u64()?,
            burst_bytes: r.u64()?,
        }),
        other => return Err(CoreError::Decode(format!("unknown rate tag {other}"))),
    };
    Ok(QosPolicy {
        capacity_bytes,
        overflow,
        rate,
    })
}

/// Encodes a message: MIME type, body, then its metadata with the trace
/// context merged in as decimal entries in key order (see
/// [`UMessage::size`]).
fn encode_umessage(w: &mut Writer, m: &UMessage) {
    let (ty, subtype) = m.mime().parts();
    w.u16((ty.len() + 1 + subtype.len()) as u16);
    w.out.extend_from_slice(ty.as_bytes());
    w.out.push(b'/');
    w.out.extend_from_slice(subtype.as_bytes());
    w.bytes(m.body());
    w.u16(m.wire_metas().count() as u16);
    let mut digits = [0; 20];
    for (k, v) in m.wire_metas() {
        w.str(k);
        let v = v.bytes(&mut digits);
        w.u16(v.len() as u16);
        w.out.extend_from_slice(v);
    }
}

/// Encodes `header` followed by `m` in the layout a path message
/// carries it in, as one frame (one allocation). The shard hand-off
/// codec ([`crate::shardlink`]) frames its messages with this.
pub(crate) fn umessage_frame(header: &[u8], m: &UMessage) -> Payload {
    // 64 bytes cover the MIME type and the length prefixes of a
    // typical message; `size` counts the body and metadata text.
    let mut w = Writer {
        out: PayloadBuilder::with_capacity(header.len() + 64 + m.size()),
    };
    w.out.extend_from_slice(header);
    encode_umessage(&mut w, m);
    w.out.freeze()
}

/// Decodes the [`UMessage`] that fills `frame` from byte `at` to its
/// end, as [`umessage_frame`] wrote it. The body is a zero-copy slice
/// of `frame`.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] on truncated or malformed input or
/// trailing bytes.
pub(crate) fn decode_umessage_at(frame: &Payload, at: usize) -> CoreResult<UMessage> {
    let mut r = Reader::with_backing(frame);
    r.take(at)?;
    let m = decode_umessage(&mut r)?;
    r.finish()?;
    Ok(m)
}

fn decode_umessage(r: &mut Reader<'_>) -> CoreResult<UMessage> {
    let mime: MimeType = r.str_ref()?.parse()?;
    let body = r.bytes()?;
    let mut m = UMessage::new(mime, body);
    let n = r.u16()? as usize;
    for _ in 0..n {
        let k = r.str_ref()?;
        let v = r.str_ref()?;
        m.push_wire_meta(k, v);
    }
    Ok(m)
}

/// Frames of the retired full-refresh protocol, byte for byte as it
/// encoded them: an advertisement of `profile` at `home` (tag 1) and a
/// bye for it (tag 2). Tests use them to check both are rejected.
#[cfg(test)]
pub(crate) fn retired_frames(profile: &TranslatorProfile, home: Addr) -> [Vec<u8>; 2] {
    let mut advertise = Writer::new();
    advertise.u8(1);
    encode_profile(&mut advertise, profile);
    encode_addr(&mut advertise, home);
    let mut bye = Writer::new();
    bye.u8(2);
    encode_translator_id(&mut bye, profile.id());
    [advertise.out.into_vec(), bye.out.into_vec()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> TranslatorProfile {
        let shape = Shape::builder()
            .digital("in", Direction::Input, "image/jpeg".parse().unwrap())
            .physical(
                "screen",
                Direction::Output,
                PerceptionType::Visible,
                "screen",
            )
            .build()
            .unwrap();
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(3), 14), "TV")
            .platform("upnp")
            .shape(shape)
            .attr("room", "living")
            .build()
    }

    #[test]
    fn probe_round_trip() {
        let msg = WireMessage::Probe {
            reply_to: Addr::new(NodeId::from_index(0), 47_000),
        };
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn retired_tags_are_rejected() {
        let home = Addr::new(NodeId::from_index(2), 47_001);
        for frame in retired_frames(&sample_profile(), home) {
            assert!(WireMessage::decode(&frame).is_err(), "tag {}", frame[0]);
            let mut dec = FrameDecoder::new();
            dec.push(&(frame.len() as u32).to_le_bytes());
            dec.push(&frame);
            assert!(dec.next().is_err(), "framed tag {}", frame[0]);
        }
    }

    #[test]
    fn path_message_round_trip() {
        let msg = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(2), 5),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "media-in"),
            msg: UMessage::new("image/jpeg".parse().unwrap(), vec![1, 2, 3]).with_meta("seq", "42"),
        };
        assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn trace_context_encodes_as_the_metadata_it_replaced() {
        // The typed trace context must put exactly the bytes on the wire
        // that it did as metadata strings: each field as a key and a
        // decimal value, in sorted-key position between application
        // keys on either side, with `SpanId::NONE` written as "0".
        // Golden bytes and size captured from the metadata-string codec.
        let mut msg = UMessage::new("text/plain".parse().unwrap(), vec![0xAB])
            .with_meta("app.seq", "7")
            .with_meta("zz.tail", "ok");
        msg.trace.sent_at = Some(simnet::SimTime::from_nanos(1_234_567));
        msg.trace.transport_span = Some(simnet::SpanId::NONE);
        let frame = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(1), 2),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 3), "in"),
            msg: msg.clone(),
        };
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            4, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 0, b'i', b'n',
            10, 0, b't', b'e', b'x', b't', b'/', b'p', b'l', b'a', b'i', b'n',
            1, 0, 0, 0, 0xAB,
            4, 0,                   // four metadata entries
            7, 0, b'a', b'p', b'p', b'.', b's', b'e', b'q', 1, 0, b'7',
            15, 0, b'u', b'm', b'i', b'd', b'd', b'l', b'e', b'.', b's', b'e', b'n', b't',
            b'-', b'n', b's', 7, 0, b'1', b'2', b'3', b'4', b'5', b'6', b'7',
            22, 0, b'u', b'm', b'i', b'd', b'd', b'l', b'e', b'.', b't', b'r', b'a', b'n',
            b's', b'p', b'o', b'r', b't', b'-', b's', b'p', b'a', b'n', 1, 0, b'0',
            7, 0, b'z', b'z', b'.', b't', b'a', b'i', b'l', 2, 0, b'o', b'k',
        ];
        assert_eq!(frame.encode(), expected);
        // Buffer accounting counts each field as its key and digits.
        assert_eq!(msg.size(), 63);
        let mut wider = msg.clone();
        wider.trace.transport_span = Some(simnet::SpanId(42));
        assert_eq!(wider.size(), 64);
        let Ok(WireMessage::PathMessage { msg: back, .. }) = WireMessage::decode(&expected) else {
            panic!("golden frame decodes as a path message");
        };
        assert_eq!(back, msg);
        assert_eq!(
            back.trace.sent_at,
            Some(simnet::SimTime::from_nanos(1_234_567))
        );
        assert_eq!(back.trace.transport_span, Some(simnet::SpanId::NONE));
        assert_eq!(back.trace.queue_span, None);
        let app: Vec<_> = back.metas().collect();
        assert_eq!(app, [("app.seq", "7"), ("zz.tail", "ok")]);
    }

    #[test]
    fn path_message_wire_bytes_are_stable() {
        // Golden bytes: interning the port name (PortRef.port: String →
        // Symbol) must not change the wire encoding. This is the exact
        // byte sequence the String-based codec produced.
        let msg = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(2), 5),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "in"),
            msg: UMessage::new("text/plain".parse().unwrap(), vec![0xAB, 0xCD]),
        };
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            4,                      // TAG_PATH
            2, 0, 0, 0,             // connection.runtime (u32 LE)
            5, 0, 0, 0,             // connection.local
            0, 0, 0, 0,             // dst.translator.runtime
            7, 0, 0, 0,             // dst.translator.local
            2, 0, b'i', b'n',       // dst.port: u16 LE length + UTF-8
            10, 0,                  // mime length
            b't', b'e', b'x', b't', b'/', b'p', b'l', b'a', b'i', b'n',
            2, 0, 0, 0, 0xAB, 0xCD, // body: u32 LE length + bytes
            0, 0,                   // metadata count
        ];
        assert_eq!(msg.encode(), expected);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = WireMessage::DeltaRequest {
            origin: RuntimeId(1),
            from: 1,
            reply_to: Addr::new(NodeId::from_index(0), 47_000),
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(WireMessage::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WireMessage::Probe {
            reply_to: Addr::new(NodeId::from_index(0), 1),
        }
        .encode();
        bytes.push(0);
        assert!(WireMessage::decode(&bytes).is_err());
    }

    #[test]
    fn frame_decoder_handles_arbitrary_chunking() {
        let msgs = vec![
            WireMessage::DeltaRequest {
                origin: RuntimeId(0),
                from: 1,
                reply_to: Addr::new(NodeId::from_index(1), 47_000),
            },
            WireMessage::Delta {
                origin: RuntimeId(3),
                home: Addr::new(NodeId::from_index(1), 47_001),
                first: 1,
                ops: vec![DeltaOp::Add(sample_profile())],
            },
            WireMessage::Probe {
                reply_to: Addr::new(NodeId::from_index(2), 47_000),
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(m.encode_framed());
        }
        // Feed one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(m) = dec.next().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn drain_frames_decodes_all_buffered_frames_in_one_poll() {
        // Regression: `next()` surfaced one frame per poll, so a payload
        // carrying N frames cost N+1 decoder invocations. `drain_frames`
        // must consume everything available in a single pass.
        let msgs: Vec<WireMessage> = (0..5)
            .map(|i| WireMessage::DeltaRequest {
                origin: RuntimeId(0),
                from: i,
                reply_to: Addr::new(NodeId::from_index(1), 47_000),
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(m.encode_framed());
        }

        // The old pattern: one poll per frame, plus the final empty poll.
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut out = Vec::new();
        while let Some(m) = dec.next().unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.polls(), msgs.len() as u64 + 1);

        // The drained pattern: every frame in one invocation.
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut drained = Vec::new();
        let n = dec.drain_frames(&mut drained);
        assert_eq!(n, msgs.len());
        assert_eq!(dec.polls(), 1);
        let decoded: Vec<WireMessage> = drained.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(decoded, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn framed_decode_is_zero_copy_within_a_chunk() {
        let msg = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(2), 5),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "media-in"),
            msg: UMessage::new("image/jpeg".parse().unwrap(), vec![9u8; 4096]),
        };
        let framed = msg.encode_framed();
        let mut dec = FrameDecoder::new();
        dec.push_payload(framed.clone());
        let Some(WireMessage::PathMessage { msg: decoded, .. }) = dec.next().unwrap() else {
            panic!("expected path message");
        };
        assert!(
            decoded.body_payload().shares_buffer(&framed),
            "body must be a view of the framed buffer, not a copy"
        );
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn connect_control_round_trip() {
        use crate::shape::PortKind;
        let q = Query::has_port(
            Direction::Input,
            PortKind::Digital("image/*".parse().unwrap()),
        )
        .and(Query::Platform("upnp".to_owned()).not());
        for msg in [
            WireMessage::ConnectRequest {
                token: 99,
                reply_to: Addr::new(NodeId::from_index(4), 47_000),
                src: PortRef::new(TranslatorId::new(RuntimeId(1), 2), "image-out"),
                target: WireTarget::Query(q),
                qos: QosPolicy::bounded_drop_oldest(4096).with_rate(1000, 2000),
            },
            WireMessage::ConnectRequest {
                token: 100,
                reply_to: Addr::new(NodeId::from_index(4), 47_000),
                src: PortRef::new(TranslatorId::new(RuntimeId(1), 2), "image-out"),
                target: WireTarget::Port(PortRef::new(
                    TranslatorId::new(RuntimeId(0), 7),
                    "media-in",
                )),
                qos: QosPolicy::unbounded(),
            },
            WireMessage::ConnectReply {
                token: 99,
                result: Ok(ConnectionId::new(RuntimeId(1), 3)),
            },
            WireMessage::ConnectReply {
                token: 100,
                result: Err("incompatible ports".to_owned()),
            },
            WireMessage::DisconnectRequest {
                connection: ConnectionId::new(RuntimeId(1), 3),
            },
        ] {
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn delta_gossip_round_trip() {
        for msg in [
            WireMessage::Delta {
                origin: RuntimeId(3),
                home: Addr::new(NodeId::from_index(2), 47_001),
                first: 17,
                ops: vec![
                    DeltaOp::Add(sample_profile()),
                    DeltaOp::Remove(TranslatorId::new(RuntimeId(3), 9)),
                    DeltaOp::Add(sample_profile()),
                ],
            },
            WireMessage::Delta {
                origin: RuntimeId(0),
                home: Addr::new(NodeId::from_index(0), 47_001),
                first: 1,
                ops: vec![],
            },
            WireMessage::Digest {
                origin: RuntimeId(7),
                reply_to: Addr::new(NodeId::from_index(5), 47_000),
                home: Addr::new(NodeId::from_index(5), 47_001),
                vector: vec![(RuntimeId(7), 42), (RuntimeId(1), 3)],
            },
            WireMessage::DeltaRequest {
                origin: RuntimeId(7),
                from: 12,
                reply_to: Addr::new(NodeId::from_index(9), 47_000),
            },
            WireMessage::Snapshot {
                origin: RuntimeId(7),
                home: Addr::new(NodeId::from_index(5), 47_001),
                version: 42,
                profiles: vec![sample_profile(), sample_profile()],
            },
            WireMessage::Snapshot {
                origin: RuntimeId(1),
                home: Addr::new(NodeId::from_index(1), 47_001),
                version: 6,
                profiles: vec![],
            },
        ] {
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn delta_wire_bytes_are_stable() {
        // Golden bytes: deltas are replayed deterministically across
        // replicas, so the encoding is pinned.
        let msg = WireMessage::Delta {
            origin: RuntimeId(2),
            home: Addr::new(NodeId::from_index(3), 47_001),
            first: 5,
            ops: vec![DeltaOp::Remove(TranslatorId::new(RuntimeId(2), 7))],
        };
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            8,                       // TAG_DELTA
            2, 0, 0, 0,              // origin (u32 LE)
            3, 0, 0, 0, 0x99, 0xB7,  // home: node u32 LE + port 47001 u16 LE
            5, 0, 0, 0, 0, 0, 0, 0,  // first (u64 LE)
            1, 0,                    // op count (u16 LE)
            1,                       // OP_REMOVE
            2, 0, 0, 0,              // id.runtime
            7, 0, 0, 0,              // id.local
        ];
        assert_eq!(msg.encode(), expected);
    }

    #[test]
    fn steady_state_digest_is_small() {
        // The whole point of delta gossip: the periodic per-runtime cost
        // is one self-watermark digest, not a table re-broadcast. Budget
        // it so a regression (e.g. digesting the full vector every tick)
        // shows up here before it shows up in the E12 byte ratio.
        let msg = WireMessage::Digest {
            origin: RuntimeId(42),
            reply_to: Addr::new(NodeId::from_index(99), 47_000),
            home: Addr::new(NodeId::from_index(99), 47_001),
            vector: vec![(RuntimeId(42), u64::MAX)],
        };
        assert!(
            msg.encode().len() <= 32,
            "steady-state digest must stay a few dozen bytes, got {}",
            msg.encode().len()
        );
    }

    #[test]
    fn deep_query_rejected() {
        let mut q = Query::All;
        for _ in 0..64 {
            q = q.not();
        }
        let msg = WireMessage::ConnectRequest {
            token: 0,
            reply_to: Addr::new(NodeId::from_index(0), 1),
            src: PortRef::new(TranslatorId::new(RuntimeId(0), 0), "p"),
            target: WireTarget::Query(q),
            qos: QosPolicy::unbounded(),
        };
        assert!(WireMessage::decode(&msg.encode()).is_err());
    }

    /// Random bytes never panic the decoder.
    #[test]
    fn decode_never_panics() {
        simnet::check_cases("wire_decode_never_panics", 256, |_, rng| {
            let len = rng.gen_range(0usize..256);
            let bytes = rng.gen_bytes(len);
            let _ = WireMessage::decode(&bytes);
        });
    }

    /// A delta frame adding each of `profiles`, from origin 3.
    fn add_frame(profiles: &[TranslatorProfile]) -> Vec<u8> {
        WireMessage::Delta {
            origin: RuntimeId(3),
            home: Addr::new(NodeId::from_index(2), 47_001),
            first: 1,
            ops: profiles.iter().cloned().map(DeltaOp::Add).collect(),
        }
        .encode()
    }

    /// The profiles a decoded delta frame adds.
    fn added(frame: &[u8]) -> Vec<TranslatorProfile> {
        match WireMessage::decode(frame).expect("valid delta") {
            WireMessage::Delta { ops, .. } => ops
                .into_iter()
                .filter_map(|op| match op {
                    DeltaOp::Add(p) => Some(p),
                    DeltaOp::Remove(_) => None,
                })
                .collect(),
            other => panic!("not a delta: {other:?}"),
        }
    }

    fn numbered_profile(i: u32) -> TranslatorProfile {
        sample_profile()
            .with_id(TranslatorId::new(RuntimeId(3), i))
            .with_attr("n", i.to_string())
    }

    #[test]
    fn repeated_decodes_share_one_profile() {
        let frame = add_frame(&[sample_profile()]);
        let a = added(&frame);
        let b = added(&frame);
        assert_eq!(a, b);
        assert_eq!(a[0], sample_profile());
        assert!(
            a[0].shares_storage(&b[0]),
            "the second decode of the same bytes must reuse the first"
        );
        // Equal content under a different encoding position still hits:
        // the key is the profile's own bytes, not the frame's.
        let snapshot = WireMessage::Snapshot {
            origin: RuntimeId(3),
            home: Addr::new(NodeId::from_index(2), 47_001),
            version: 9,
            profiles: vec![sample_profile()],
        };
        match WireMessage::decode(&snapshot.encode()).unwrap() {
            WireMessage::Snapshot { profiles, .. } => {
                assert!(profiles[0].shares_storage(&a[0]));
            }
            other => panic!("not a snapshot: {other:?}"),
        }
    }

    #[test]
    fn shared_profile_copies_on_write() {
        let frame = add_frame(&[sample_profile()]);
        let a = added(&frame).remove(0);
        let b = added(&frame).remove(0);
        assert!(a.shares_storage(&b));
        let tagged = b.clone().with_attr("room", "den");
        let moved = b.clone().with_id(TranslatorId::new(RuntimeId(9), 9));
        assert_eq!(tagged.attr("room"), Some("den"));
        assert_eq!(moved.id(), TranslatorId::new(RuntimeId(9), 9));
        for handle in [&a, &b] {
            assert_eq!(
                *handle,
                sample_profile(),
                "a write leaked into a shared handle"
            );
        }
        // Later decodes still see the original bytes' profile.
        assert_eq!(added(&frame)[0], sample_profile());
    }

    /// Valid directory frames with several distinct profiles, for the
    /// mutation battery.
    fn directory_frames() -> Vec<Vec<u8>> {
        let profiles: Vec<TranslatorProfile> = (0..3).map(numbered_profile).collect();
        let mut ops: Vec<DeltaOp> = profiles.iter().cloned().map(DeltaOp::Add).collect();
        ops.insert(1, DeltaOp::Remove(TranslatorId::new(RuntimeId(3), 40)));
        vec![
            WireMessage::Delta {
                origin: RuntimeId(3),
                home: Addr::new(NodeId::from_index(2), 47_001),
                first: 1,
                ops,
            }
            .encode(),
            WireMessage::Snapshot {
                origin: RuntimeId(3),
                home: Addr::new(NodeId::from_index(2), 47_001),
                version: 5,
                profiles,
            }
            .encode(),
        ]
    }

    /// Offsets of the `u16` length prefixes of every string field in
    /// `frame` whose content is `needle`.
    fn str_prefixes(frame: &[u8], needle: &str) -> Vec<usize> {
        let n = needle.len();
        (0..frame.len().saturating_sub(n + 1))
            .filter(|&p| {
                frame[p..p + 2] == (n as u16).to_le_bytes()
                    && &frame[p + 2..p + 2 + n] == needle.as_bytes()
            })
            .collect()
    }

    #[test]
    fn mutated_frames_decode_alike_on_warm_and_cold_threads() {
        let frames = directory_frames();
        simnet::check_cases("wire_profile_table_mutations", 192, |case, rng| {
            let frame = &frames[case as usize % frames.len()];
            // Warm this thread's table with the valid frame first.
            WireMessage::decode(frame).expect("valid frame");
            let mut mutant = frame.clone();
            match rng.gen_range(0u32..3) {
                0 => {
                    for _ in 0..rng.gen_range(1usize..=3) {
                        let at = rng.gen_range(0..mutant.len());
                        mutant[at] ^= rng.gen_range(1u8..=255);
                    }
                }
                1 => mutant.truncate(rng.gen_range(0..frame.len())),
                _ => {
                    let needles = ["TV", "upnp", "in", "image/jpeg", "screen", "room", "n"];
                    let needle = needles[rng.gen_range(0..needles.len())];
                    let at = str_prefixes(frame, needle);
                    let at = at[rng.gen_range(0..at.len())];
                    let len = needle.len() as u16;
                    let hostile = [
                        0,
                        len - 1,
                        len + 1,
                        u16::MAX,
                        rng.gen_range(0u16..=u16::MAX),
                    ];
                    let v = hostile[rng.gen_range(0..hostile.len())];
                    mutant[at..at + 2].copy_from_slice(&v.to_le_bytes());
                }
            }
            let warm = WireMessage::decode(&mutant);
            let cold = {
                let mutant = mutant.clone();
                std::thread::spawn(move || WireMessage::decode(&mutant))
                    .join()
                    .expect("cold decode panicked")
            };
            assert_eq!(warm, cold, "warm and cold tables disagree on {mutant:?}");
        });
    }

    #[test]
    fn profile_table_stays_within_its_bound() {
        // Profiles a replica keeps survive every purge...
        let held: Vec<TranslatorProfile> = (0..1_500)
            .flat_map(|i| added(&add_frame(&[numbered_profile(i)])))
            .collect();
        // ...while 10,000 decoded and dropped ones do not pile up.
        // The bound is twice the live set at the last purge, which
        // includes the profile whose insert triggered it.
        for i in 10_000..20_000 {
            drop(added(&add_frame(&[numbered_profile(i)])));
            assert!(
                intern::profile_table_len() <= 2 * (held.len() + 1),
                "table at {} entries with {} live",
                intern::profile_table_len(),
                held.len()
            );
        }
        for (i, p) in held.iter().enumerate() {
            let again = added(&add_frame(&[numbered_profile(i as u32)]));
            assert!(again[0].shares_storage(p), "live profile {i} was purged");
        }
        drop(held);
        for i in 20_000..30_000 {
            drop(added(&add_frame(&[numbered_profile(i)])));
        }
        assert!(
            intern::profile_table_len() <= 1_024,
            "table kept {} dead entries",
            intern::profile_table_len()
        );
    }

    /// UMessage round trip with arbitrary body and metadata.
    #[test]
    fn path_round_trip() {
        simnet::check_cases("wire_path_round_trip", 256, |_, rng| {
            let len = rng.gen_range(0usize..512);
            let body = rng.gen_bytes(len);
            let mut m = UMessage::new("application/octet-stream".parse().unwrap(), body);
            let n_meta = rng.gen_range(0usize..4);
            for _ in 0..n_meta {
                let klen = rng.gen_range(1usize..=8);
                let k = rng.gen_string("abcdefghijklmnopqrstuvwxyz", klen);
                let vlen = rng.gen_range(0usize..=16);
                let v = rng.gen_string("abcdefghijklmnopqrstuvwxyz0123456789", vlen);
                m = m.with_meta(k, v);
            }
            let local = rng.gen_range(0u32..=u32::MAX);
            let msg = WireMessage::PathMessage {
                connection: ConnectionId::new(RuntimeId(1), local),
                dst: PortRef::new(TranslatorId::new(RuntimeId(0), 0), "p"),
                msg: m,
            };
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        });
    }
}
