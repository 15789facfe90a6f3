//! Wire codec for inter-runtime protocol messages.
//!
//! uMiddle runtimes exchange two kinds of traffic: *directory* messages
//! (probes, deltas, digests, snapshots — multicast or unicast datagrams) and
//! *transport* messages (path payloads — over streams). Both use this
//! compact little-endian binary encoding. The codec is total: any byte
//! sequence either decodes to a message or yields a
//! [`CoreError::Decode`](crate::CoreError::Decode); it never panics.

use simnet::{Addr, ByteReader, ChunkQueue, NodeId, Payload, PayloadBuilder};

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
        let mut w = PayloadBuilder::new();
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes the message into a shared [`Payload`] (one allocation, no
    /// trailing copy).
    pub fn encode_payload(&self) -> Payload {
        let mut w = PayloadBuilder::new();
        self.encode_into(&mut w);
        w.freeze()
    }

    fn encode_into(&self, w: &mut PayloadBuilder) {
        match self {
            WireMessage::Probe { reply_to } => {
                w.push(TAG_PROBE);
                encode_addr(w, *reply_to);
            }
            WireMessage::PathMessage {
                connection,
                dst,
                msg,
            } => {
                w.push(TAG_PATH);
                w.u32_le(connection.runtime.0);
                w.u32_le(connection.local);
                encode_translator_id(w, dst.translator);
                w.str16_le(&dst.port);
                encode_umessage(w, msg);
            }
            WireMessage::ConnectRequest {
                token,
                reply_to,
                src,
                target,
                qos,
            } => {
                w.push(TAG_CONNECT_REQ);
                w.u64_le(*token);
                encode_addr(w, *reply_to);
                encode_translator_id(w, src.translator);
                w.str16_le(&src.port);
                match target {
                    WireTarget::Port(p) => {
                        w.push(0);
                        encode_translator_id(w, p.translator);
                        w.str16_le(&p.port);
                    }
                    WireTarget::Query(q) => {
                        w.push(1);
                        encode_query(w, q);
                    }
                }
                encode_qos(w, qos);
            }
            WireMessage::ConnectReply { token, result } => {
                w.push(TAG_CONNECT_REPLY);
                w.u64_le(*token);
                match result {
                    Ok(conn) => {
                        w.push(0);
                        w.u32_le(conn.runtime.0);
                        w.u32_le(conn.local);
                    }
                    Err(e) => {
                        w.push(1);
                        w.str16_le(e);
                    }
                }
            }
            WireMessage::DisconnectRequest { connection } => {
                w.push(TAG_DISCONNECT);
                w.u32_le(connection.runtime.0);
                w.u32_le(connection.local);
            }
            WireMessage::Delta {
                origin,
                home,
                first,
                ops,
            } => {
                w.push(TAG_DELTA);
                w.u32_le(origin.0);
                encode_addr(w, *home);
                w.u64_le(*first);
                w.u16_le(ops.len() as u16);
                for op in ops {
                    match op {
                        DeltaOp::Add(profile) => {
                            w.push(OP_ADD);
                            encode_profile(w, profile);
                        }
                        DeltaOp::Remove(id) => {
                            w.push(OP_REMOVE);
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
                w.push(TAG_DIGEST);
                w.u32_le(origin.0);
                encode_addr(w, *reply_to);
                encode_addr(w, *home);
                w.u16_le(vector.len() as u16);
                for (rt, version) in vector {
                    w.u32_le(rt.0);
                    w.u64_le(*version);
                }
            }
            WireMessage::DeltaRequest {
                origin,
                from,
                reply_to,
            } => {
                w.push(TAG_DELTA_REQ);
                w.u32_le(origin.0);
                w.u64_le(*from);
                encode_addr(w, *reply_to);
            }
            WireMessage::Snapshot {
                origin,
                home,
                version,
                profiles,
            } => {
                w.push(TAG_SNAPSHOT);
                w.u32_le(origin.0);
                encode_addr(w, *home);
                w.u64_le(*version);
                w.u32_le(profiles.len() as u32);
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
        Self::decode_reader(ByteReader::new(bytes))
    }

    /// Decodes a message from a shared [`Payload`]; any embedded
    /// [`UMessage`] body becomes a zero-copy sub-slice of `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Decode`] on truncated or malformed input.
    pub fn decode_payload(payload: &Payload) -> CoreResult<WireMessage> {
        Self::decode_reader(ByteReader::with_backing(payload))
    }

    fn decode_reader(mut r: ByteReader<'_>) -> CoreResult<WireMessage> {
        let tag = r.u8()?;
        let msg = match tag {
            TAG_PROBE => WireMessage::Probe {
                reply_to: decode_addr(&mut r)?,
            },
            TAG_PATH => WireMessage::PathMessage {
                connection: ConnectionId::new(RuntimeId(r.u32_le()?), r.u32_le()?),
                dst: PortRef::new(decode_translator_id(&mut r)?, r.str16_le()?),
                msg: decode_umessage(&mut r)?,
            },
            TAG_CONNECT_REQ => WireMessage::ConnectRequest {
                token: r.u64_le()?,
                reply_to: decode_addr(&mut r)?,
                src: PortRef::new(decode_translator_id(&mut r)?, r.str16_le()?),
                target: match r.u8()? {
                    0 => {
                        WireTarget::Port(PortRef::new(decode_translator_id(&mut r)?, r.str16_le()?))
                    }
                    1 => WireTarget::Query(decode_query(&mut r, 0)?),
                    other => return Err(CoreError::Decode(format!("unknown target tag {other}"))),
                },
                qos: decode_qos(&mut r)?,
            },
            TAG_CONNECT_REPLY => WireMessage::ConnectReply {
                token: r.u64_le()?,
                result: match r.u8()? {
                    0 => Ok(ConnectionId::new(RuntimeId(r.u32_le()?), r.u32_le()?)),
                    1 => Err(r.str16_le()?.to_owned()),
                    other => return Err(CoreError::Decode(format!("unknown result tag {other}"))),
                },
            },
            TAG_DISCONNECT => WireMessage::DisconnectRequest {
                connection: ConnectionId::new(RuntimeId(r.u32_le()?), r.u32_le()?),
            },
            TAG_DELTA => {
                let origin = RuntimeId(r.u32_le()?);
                let home = decode_addr(&mut r)?;
                let first = r.u64_le()?;
                let n = r.u16_le()? as usize;
                let mut ops = Vec::with_capacity(r.capacity_for(n));
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
                let origin = RuntimeId(r.u32_le()?);
                let reply_to = decode_addr(&mut r)?;
                let home = decode_addr(&mut r)?;
                let n = r.u16_le()? as usize;
                let mut vector = Vec::with_capacity(r.capacity_for(n));
                for _ in 0..n {
                    vector.push((RuntimeId(r.u32_le()?), r.u64_le()?));
                }
                WireMessage::Digest {
                    origin,
                    reply_to,
                    home,
                    vector,
                }
            }
            TAG_DELTA_REQ => WireMessage::DeltaRequest {
                origin: RuntimeId(r.u32_le()?),
                from: r.u64_le()?,
                reply_to: decode_addr(&mut r)?,
            },
            TAG_SNAPSHOT => {
                let origin = RuntimeId(r.u32_le()?);
                let home = decode_addr(&mut r)?;
                let version = r.u64_le()?;
                let n = r.u32_le()? as usize;
                let mut profiles = Vec::with_capacity(r.capacity_for(n));
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

    /// Encodes with a `u32` length prefix, for framing on a byte stream,
    /// with no body copy. A path frame is allocated once.
    pub fn encode_framed(&self) -> Payload {
        PayloadBuilder::u32_framed(u32::to_le_bytes, self.size_hint(), |w| self.encode_into(w))
    }

    /// The bytes a path frame's body encodes to; 0 for the control
    /// frames, whose buffers grow as they are written.
    fn size_hint(&self) -> usize {
        match self {
            WireMessage::PathMessage { dst, msg, .. } => {
                // Tag, connection, translator and port name.
                let header = 1 + 8 + 8 + 2 + dst.port.len();
                // The mime, body and metadata, each behind its length;
                // `size()` counts the body and every key and value.
                let (ty, subtype) = msg.mime().parts();
                let metas = msg.wire_metas().count();
                header + 2 + ty.len() + 1 + subtype.len() + 4 + 2 + 4 * metas + msg.size()
            }
            _ => 0,
        }
    }
}

/// Incremental decoder of length-prefixed [`WireMessage`]s from a byte
/// stream, tolerant of arbitrary chunking.
///
/// Frames pop through [`ChunkQueue::pop_u32_frame`]: O(frame) work per
/// frame however many are still buffered, a zero-copy sub-slice for a
/// frame inside one chunk, and one counted copy for a frame spanning
/// chunks.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: ChunkQueue,
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
        self.buf.push_slice(bytes);
    }

    /// Feeds a received [`Payload`] chunk without copying.
    pub fn push_payload(&mut self, chunk: Payload) {
        self.buf.push(chunk);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
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
        self.buf
            .pop_u32_frame(u32::from_le_bytes)
            .map(|frame| WireMessage::decode_payload(&frame))
            .transpose()
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
// Composite encoders
// ---------------------------------------------------------------------

fn encode_addr(w: &mut PayloadBuilder, addr: Addr) {
    w.u32_le(addr.node.index() as u32);
    w.u16_le(addr.port);
}

fn decode_addr(r: &mut ByteReader<'_>) -> CoreResult<Addr> {
    let node = NodeId::from_index(r.u32_le()? as usize);
    let port = r.u16_le()?;
    Ok(Addr::new(node, port))
}

fn encode_translator_id(w: &mut PayloadBuilder, id: TranslatorId) {
    w.u32_le(id.runtime.0);
    w.u32_le(id.local);
}

fn decode_translator_id(r: &mut ByteReader<'_>) -> CoreResult<TranslatorId> {
    Ok(TranslatorId::new(RuntimeId(r.u32_le()?), r.u32_le()?))
}

fn encode_port_kind(w: &mut PayloadBuilder, kind: &PortKind) {
    match kind {
        PortKind::Digital(m) => {
            w.push(KIND_DIGITAL);
            w.str16_le(&m.to_string());
        }
        PortKind::Physical { perception, media } => {
            w.push(KIND_PHYSICAL);
            w.str16_le(&perception.to_string());
            w.str16_le(media);
        }
    }
}

fn decode_port_kind(r: &mut ByteReader<'_>) -> CoreResult<PortKind> {
    match r.u8()? {
        KIND_DIGITAL => {
            let m: MimeType = r.str16_le()?.parse()?;
            Ok(PortKind::Digital(m))
        }
        KIND_PHYSICAL => {
            let perception: PerceptionType = r.str16_le()?.parse()?;
            Ok(PortKind::physical(perception, r.str16_le()?))
        }
        other => Err(CoreError::Decode(format!("unknown port kind {other}"))),
    }
}

fn encode_shape(w: &mut PayloadBuilder, shape: &Shape) {
    w.u16_le(shape.ports().len() as u16);
    for p in shape.ports() {
        w.str16_le(&p.name);
        w.push(match p.direction {
            Direction::Input => 0,
            Direction::Output => 1,
        });
        encode_port_kind(w, &p.kind);
    }
}

fn decode_shape(r: &mut ByteReader<'_>) -> CoreResult<Shape> {
    let n = r.u16_le()? as usize;
    let mut ports = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        let name = r.str16_le()?.to_owned();
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

fn encode_profile(w: &mut PayloadBuilder, p: &TranslatorProfile) {
    encode_translator_id(w, p.id());
    w.str16_le(p.name());
    w.str16_le(p.platform());
    encode_shape(w, p.shape());
    let attrs: Vec<_> = p.attrs().collect();
    w.u16_le(attrs.len() as u16);
    for (k, v) in attrs {
        w.str16_le(k);
        w.str16_le(v);
    }
}

/// Decodes one profile, hash-consed per thread: snapshots and replayed
/// deltas carry profiles earlier frames already carried, so when the
/// profile this thread last decoded under the same translator id has an
/// encoding the remaining frame starts with, that result is returned as
/// a clone (an `Arc` bump; see [`crate::intern`]). The encoding is
/// self-delimiting, so a frame that starts with it decodes to exactly
/// that profile, and profiles are immutable and compare by value: a hit
/// is indistinguishable from a fresh decode. Anything else — hostile
/// bytes included — goes through the full validating decoder.
fn decode_profile(r: &mut ByteReader<'_>) -> CoreResult<TranslatorProfile> {
    let rest = r.rest();
    let id = decode_translator_id(&mut ByteReader::new(rest))?;
    if let Some((profile, len)) = intern::cached_profile(id, rest) {
        r.take(len)?;
        return Ok(profile);
    }
    let profile = decode_profile_fields(r)?;
    intern::store_profile(&rest[..rest.len() - r.remaining()], &profile);
    Ok(profile)
}

fn decode_profile_fields(r: &mut ByteReader<'_>) -> CoreResult<TranslatorProfile> {
    let id = decode_translator_id(r)?;
    let name = r.str16_le()?.to_owned();
    let platform = r.str16_le()?.to_owned();
    let shape = decode_shape(r)?;
    let mut builder = TranslatorProfile::builder(id, name)
        .platform(platform)
        .shape(shape);
    let n = r.u16_le()? as usize;
    for _ in 0..n {
        let k = r.str16_le()?.to_owned();
        let v = r.str16_le()?.to_owned();
        builder = builder.attr(k, v);
    }
    Ok(builder.build())
}

/// Maximum query nesting depth accepted by the decoder (defense against
/// stack exhaustion from hostile input).
const MAX_QUERY_DEPTH: u32 = 32;

fn encode_query(w: &mut PayloadBuilder, q: &Query) {
    match q {
        Query::All => w.push(0),
        Query::None => w.push(1),
        Query::HasPort { direction, kind } => {
            w.push(2);
            w.push(match direction {
                Direction::Input => 0,
                Direction::Output => 1,
            });
            encode_port_kind(w, kind);
        }
        Query::NameIs(s) => {
            w.push(3);
            w.str16_le(s);
        }
        Query::NameContains(s) => {
            w.push(4);
            w.str16_le(s);
        }
        Query::Platform(s) => {
            w.push(5);
            w.str16_le(s);
        }
        Query::Attr { key, value } => {
            w.push(6);
            w.str16_le(key);
            w.str16_le(value);
        }
        Query::HasAttr(key) => {
            w.push(7);
            w.str16_le(key);
        }
        Query::And(a, b) => {
            w.push(8);
            encode_query(w, a);
            encode_query(w, b);
        }
        Query::Or(a, b) => {
            w.push(9);
            encode_query(w, a);
            encode_query(w, b);
        }
        Query::Not(a) => {
            w.push(10);
            encode_query(w, a);
        }
    }
}

fn decode_query(r: &mut ByteReader<'_>, depth: u32) -> CoreResult<Query> {
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
        3 => Query::NameIs(r.str16_le()?.to_owned()),
        4 => Query::NameContains(r.str16_le()?.to_owned()),
        5 => Query::Platform(r.str16_le()?.to_owned()),
        6 => Query::Attr {
            key: r.str16_le()?.to_owned(),
            value: r.str16_le()?.to_owned(),
        },
        7 => Query::HasAttr(r.str16_le()?.to_owned()),
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

fn encode_qos(w: &mut PayloadBuilder, q: &QosPolicy) {
    match q.capacity_bytes {
        Some(cap) => {
            w.push(1);
            w.u64_le(cap as u64);
        }
        None => w.push(0),
    }
    w.push(match q.overflow {
        OverflowPolicy::Unbounded => 0,
        OverflowPolicy::DropNewest => 1,
        OverflowPolicy::DropOldest => 2,
    });
    match q.rate {
        Some(rate) => {
            w.push(1);
            w.u64_le(rate.bytes_per_second);
            w.u64_le(rate.burst_bytes);
        }
        None => w.push(0),
    }
}

fn decode_qos(r: &mut ByteReader<'_>) -> CoreResult<QosPolicy> {
    let capacity_bytes = match r.u8()? {
        0 => None,
        1 => Some(r.u64_le()? as usize),
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
            bytes_per_second: r.u64_le()?,
            burst_bytes: r.u64_le()?,
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
/// [`UMessage::size`]). A path message carries its `UMessage` in this
/// layout.
fn encode_umessage(w: &mut PayloadBuilder, m: &UMessage) {
    let (ty, subtype) = m.mime().parts();
    w.u16_le((ty.len() + 1 + subtype.len()) as u16);
    w.extend_from_slice(ty.as_bytes());
    w.push(b'/');
    w.extend_from_slice(subtype.as_bytes());
    w.u32_le(m.body().len() as u32);
    w.extend_from_slice(m.body());
    w.u16_le(m.wire_metas().count() as u16);
    let mut digits = [0; 20];
    for (k, v) in m.wire_metas() {
        w.str16_le(k);
        let v = v.bytes(&mut digits);
        w.u16_le(v.len() as u16);
        w.extend_from_slice(v);
    }
}

/// Decodes a [`UMessage`] as [`encode_umessage`] writes it; the body is
/// a zero-copy slice when `r` has a backing payload.
fn decode_umessage(r: &mut ByteReader<'_>) -> CoreResult<UMessage> {
    let mime: MimeType = r.str16_le()?.parse()?;
    let len = r.u32_le()? as usize;
    let body = r.payload(len)?;
    let mut m = UMessage::new(mime, body);
    let n = r.u16_le()? as usize;
    for _ in 0..n {
        let k = r.str16_le()?;
        let v = r.str16_le()?;
        m.push_wire_meta(k, v);
    }
    Ok(m)
}

/// Frames of the retired full-refresh protocol, byte for byte as it
/// encoded them: an advertisement of `profile` at `home` (tag 1) and a
/// bye for it (tag 2). Tests use them to check both are rejected.
#[cfg(test)]
pub(crate) fn retired_frames(profile: &TranslatorProfile, home: Addr) -> [Vec<u8>; 2] {
    let mut advertise = PayloadBuilder::new();
    advertise.push(1);
    encode_profile(&mut advertise, profile);
    encode_addr(&mut advertise, home);
    let mut bye = PayloadBuilder::new();
    bye.push(2);
    encode_translator_id(&mut bye, profile.id());
    [advertise.into_vec(), bye.into_vec()]
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
    fn path_frames_are_allocated_once() {
        let mut body =
            UMessage::new("video/raw".parse().unwrap(), vec![7; 1400]).with_meta("source", "cam-1");
        body.push_wire_meta("umiddle.sent-ns", "1234567");
        let msg = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(2), 5),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "media-in"),
            msg: body,
        };
        let framed = msg.encode_framed();
        assert_eq!(framed.len(), 4 + msg.encode().len());
        assert_eq!(framed.capacity(), framed.len());
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
    fn framed_decode_counts_the_copy_of_a_frame_spanning_chunks() {
        let msg = WireMessage::PathMessage {
            connection: ConnectionId::new(RuntimeId(2), 5),
            dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "media-in"),
            msg: UMessage::new("image/jpeg".parse().unwrap(), vec![9u8; 256]),
        };
        let framed = msg.encode_framed();
        let mut dec = FrameDecoder::new();
        dec.push_payload(framed.slice(0..framed.len() / 2));
        dec.push_payload(framed.slice(framed.len() / 2..framed.len()));
        let before = simnet::payload::stats().bytes_copied;
        assert_eq!(dec.next().unwrap(), Some(msg));
        assert_eq!(
            simnet::payload::stats().bytes_copied - before,
            (framed.len() - 4) as u64,
            "assembling a frame that spans chunks is a counted copy"
        );
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

    /// Valid directory frames with several distinct profiles, and a
    /// path message, for the mutation battery.
    fn mutation_corpus() -> Vec<Vec<u8>> {
        let profiles: Vec<TranslatorProfile> = (0..3).map(numbered_profile).collect();
        let mut ops: Vec<DeltaOp> = profiles.iter().cloned().map(DeltaOp::Add).collect();
        ops.insert(1, DeltaOp::Remove(TranslatorId::new(RuntimeId(3), 40)));
        let home = Addr::new(NodeId::from_index(2), 47_001);
        let msg = UMessage::new("image/jpeg".parse().unwrap(), vec![1, 2, 3]).with_meta("seq", "4");
        [
            WireMessage::Delta {
                origin: RuntimeId(3),
                home,
                first: 1,
                ops,
            },
            WireMessage::Snapshot {
                origin: RuntimeId(3),
                home,
                version: 5,
                profiles,
            },
            WireMessage::Digest {
                origin: RuntimeId(7),
                reply_to: home,
                home,
                vector: vec![(RuntimeId(7), 42), (RuntimeId(1), 3)],
            },
            WireMessage::PathMessage {
                connection: ConnectionId::new(RuntimeId(2), 5),
                dst: PortRef::new(TranslatorId::new(RuntimeId(0), 7), "media-in"),
                msg,
            },
            WireMessage::DeltaRequest {
                origin: RuntimeId(1),
                from: 1,
                reply_to: home,
            },
        ]
        .iter()
        .map(WireMessage::encode)
        .collect()
    }

    #[test]
    fn mutated_frames_decode_alike_on_warm_and_cold_threads() {
        // A mutant decodes the same on this thread, whose profile table
        // holds the valid frames' profiles, as on a fresh thread, and
        // the same from a shared payload as from a slice.
        let corpus = mutation_corpus();
        simnet::check_mutations("wire_profile_table_mutations", &corpus, |m| {
            corpus
                .iter()
                .for_each(|frame| drop(WireMessage::decode(frame)));
            let warm = WireMessage::decode(m);
            let bytes = m.to_vec();
            let cold = std::thread::spawn(move || WireMessage::decode(&bytes))
                .join()
                .expect("cold decode panicked");
            assert_eq!(warm, cold, "warm and cold tables disagree");
            let shared = WireMessage::decode_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, warm, "payload and slice decodes disagree");
            warm.ok().map(|msg| msg.encode())
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
