//! The MediaBroker broker process and its compact wire protocol.
//!
//! Unlike RMI's verbose marshaling, MediaBroker frames are lean binary —
//! that is why the paper's MB echo reaches 6.2 Mbps where RMI manages
//! 3.2 (Figure 11). Producers register typed channels; consumers attach
//! to channels (possibly with a downgraded type); the broker forwards and
//! transforms frames.

use std::collections::BTreeMap;

use simnet::{
    Addr, ByteReader, ChunkQueue, Ctx, DecodeError, IntMap, Payload, PayloadBuilder, Process,
    SimDuration, StreamEvent, StreamId,
};

use crate::types::TypeLattice;

/// The broker's well-known stream port.
pub const BROKER_PORT: u16 = 2000;

/// Fixed broker-side processing per forwarded frame (lean C-style stack).
pub const FORWARD_COST: SimDuration = SimDuration::from_micros(120);

/// MediaBroker wire frames (compact binary; `u32` length prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbFrame {
    /// Producer registers a channel.
    Produce {
        /// Channel name.
        channel: String,
        /// Media type of the stream.
        media_type: String,
    },
    /// Consumer attaches to a channel.
    Consume {
        /// Channel name.
        channel: String,
        /// Media type the consumer accepts.
        media_type: String,
    },
    /// Broker acknowledges a registration.
    Ack,
    /// Broker rejects a registration (unknown channel / untransformable).
    Nack {
        /// Why.
        reason: String,
    },
    /// Media data on the sender's channel. The payload is a shared
    /// [`Payload`] so the broker can fan one buffer out to N consumers
    /// without copying.
    Data {
        /// Payload bytes.
        payload: Payload,
    },
    /// Broker asks for the channel roster (monitoring).
    ListChannels,
    /// Channel roster: `(name, type, consumers)`.
    Channels(Vec<(String, String, u32)>),
}

const TAG_PRODUCE: u8 = 1;
const TAG_CONSUME: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_NACK: u8 = 4;
const TAG_DATA: u8 = 5;
const TAG_LIST: u8 = 6;
const TAG_CHANNELS: u8 = 7;

impl MbFrame {
    fn encode_into(&self, out: &mut PayloadBuilder) {
        match self {
            MbFrame::Produce {
                channel,
                media_type,
            } => {
                out.push(TAG_PRODUCE);
                out.str16_le(channel);
                out.str16_le(media_type);
            }
            MbFrame::Consume {
                channel,
                media_type,
            } => {
                out.push(TAG_CONSUME);
                out.str16_le(channel);
                out.str16_le(media_type);
            }
            MbFrame::Ack => out.push(TAG_ACK),
            MbFrame::Nack { reason } => {
                out.push(TAG_NACK);
                out.str16_le(reason);
            }
            MbFrame::Data { payload } => {
                out.push(TAG_DATA);
                out.u32_le(payload.len() as u32);
                out.extend_from_slice(payload);
            }
            MbFrame::ListChannels => out.push(TAG_LIST),
            MbFrame::Channels(entries) => {
                out.push(TAG_CHANNELS);
                out.u16_le(entries.len() as u16);
                for (name, ty, consumers) in entries {
                    out.str16_le(name);
                    out.str16_le(ty);
                    out.u32_le(*consumers);
                }
            }
        }
    }

    /// Encodes the frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = PayloadBuilder::new();
        self.encode_into(&mut out);
        out.into_vec()
    }

    /// Encodes with a `u32` length prefix. Prefix and body go into one
    /// buffer allocated once, so framing costs no second allocation or
    /// copy.
    pub fn encode_framed(&self) -> Payload {
        PayloadBuilder::u32_framed(u32::to_le_bytes, self.encoded_len(), |out| {
            self.encode_into(out)
        })
    }

    /// Bytes [`encode`](MbFrame::encode) writes.
    fn encoded_len(&self) -> usize {
        let str16 = |s: &str| 2 + s.len().min(usize::from(u16::MAX));
        1 + match self {
            MbFrame::Produce {
                channel,
                media_type,
            }
            | MbFrame::Consume {
                channel,
                media_type,
            } => str16(channel) + str16(media_type),
            MbFrame::Ack | MbFrame::ListChannels => 0,
            MbFrame::Nack { reason } => str16(reason),
            MbFrame::Data { payload } => 4 + payload.len(),
            MbFrame::Channels(entries) => {
                2 + entries
                    .iter()
                    .map(|(name, ty, _)| str16(name) + str16(ty) + 4)
                    .sum::<usize>()
            }
        }
    }

    /// Decodes a frame body from a shared buffer. A `Data` frame's
    /// payload is returned as a zero-copy sub-slice of `frame`.
    pub fn decode_payload(frame: &Payload) -> Option<MbFrame> {
        Self::read(ByteReader::with_backing(frame)).ok()
    }

    /// Decodes a frame body.
    pub fn decode(bytes: &[u8]) -> Option<MbFrame> {
        Self::read(ByteReader::new(bytes)).ok()
    }

    fn read(mut r: ByteReader<'_>) -> Result<MbFrame, DecodeError> {
        let frame = match r.u8()? {
            TAG_PRODUCE => MbFrame::Produce {
                channel: r.str16_le()?.to_owned(),
                media_type: r.str16_le()?.to_owned(),
            },
            TAG_CONSUME => MbFrame::Consume {
                channel: r.str16_le()?.to_owned(),
                media_type: r.str16_le()?.to_owned(),
            },
            TAG_ACK => MbFrame::Ack,
            TAG_NACK => MbFrame::Nack {
                reason: r.str16_le()?.to_owned(),
            },
            TAG_DATA => {
                let n = r.u32_le()? as usize;
                MbFrame::Data {
                    payload: r.payload(n)?,
                }
            }
            TAG_LIST => MbFrame::ListChannels,
            TAG_CHANNELS => {
                let n = usize::from(r.u16_le()?);
                let mut entries = Vec::with_capacity(r.capacity_for(n));
                for _ in 0..n {
                    entries.push((
                        r.str16_le()?.to_owned(),
                        r.str16_le()?.to_owned(),
                        r.u32_le()?,
                    ));
                }
                MbFrame::Channels(entries)
            }
            _ => return Err(DecodeError::Malformed),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Accumulates length-prefixed MB frames from a stream.
///
/// Built on [`ChunkQueue`]: arriving stream chunks are queued without
/// concatenation, extraction is O(frame) rather than O(buffered), and a
/// `Data` frame contained in one chunk is decoded as a zero-copy slice
/// of that chunk.
#[derive(Debug, Default)]
pub struct MbAccumulator {
    buf: ChunkQueue,
}

impl MbAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> MbAccumulator {
        MbAccumulator::default()
    }

    /// Feeds borrowed bytes (one copy into a fresh chunk).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push_slice(bytes);
    }

    /// Feeds a shared chunk without copying — the path stream handlers
    /// use with [`StreamEvent::Data`] payloads.
    pub fn push_payload(&mut self, chunk: Payload) {
        self.buf.push(chunk);
    }

    /// Pops the next complete frame.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed frames (buffer cleared).
    #[allow(clippy::should_implement_trait)] // framer convention, not an Iterator
    pub fn next(&mut self) -> Result<Option<MbFrame>, String> {
        let Some(body) = self.buf.pop_u32_frame(u32::from_le_bytes) else {
            return Ok(None);
        };
        match MbFrame::decode_payload(&body) {
            Some(f) => Ok(Some(f)),
            None => {
                self.buf.clear();
                Err("malformed MB frame".to_owned())
            }
        }
    }
}

#[derive(Debug)]
struct Channel {
    media_type: String,
    producer: StreamId,
    /// Consumers and their accepted type.
    consumers: Vec<(StreamId, String)>,
}

/// The broker process.
pub struct MediaBroker {
    port: u16,
    lattice: TypeLattice,
    conns: IntMap<StreamId, MbAccumulator>,
    /// Channel registry, in name order (the roster lists it so).
    channels: BTreeMap<String, Channel>,
    /// Which channel a producer stream feeds.
    producer_of: IntMap<StreamId, String>,
}

impl std::fmt::Debug for MediaBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediaBroker")
            .field("port", &self.port)
            .field("channels", &self.channels.len())
            .finish_non_exhaustive()
    }
}

impl MediaBroker {
    /// Creates a broker on the standard port with the standard lattice.
    pub fn new() -> MediaBroker {
        MediaBroker::with_port(BROKER_PORT)
    }

    /// Creates a broker on a custom port.
    pub fn with_port(port: u16) -> MediaBroker {
        MediaBroker {
            port,
            lattice: TypeLattice::standard(),
            conns: IntMap::default(),
            channels: BTreeMap::new(),
            producer_of: IntMap::default(),
        }
    }

    /// The broker's address on `node`.
    pub fn addr(node: simnet::NodeId) -> Addr {
        Addr::new(node, BROKER_PORT)
    }

    fn handle_frame(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, frame: MbFrame) {
        match frame {
            MbFrame::Produce {
                channel,
                media_type,
            } => {
                self.channels.insert(
                    channel.clone(),
                    Channel {
                        media_type,
                        producer: stream,
                        consumers: Vec::new(),
                    },
                );
                self.producer_of.insert(stream, channel);
                let _ = ctx.stream_send(stream, MbFrame::Ack.encode_framed());
                ctx.bump("mb.channels", 1);
            }
            MbFrame::Consume {
                channel,
                media_type,
            } => {
                let reply = match self.channels.get_mut(&channel) {
                    Some(ch) if self.lattice.convertible(&ch.media_type, &media_type) => {
                        ch.consumers.push((stream, media_type));
                        MbFrame::Ack
                    }
                    Some(ch) => MbFrame::Nack {
                        reason: format!("cannot transform {} to {}", ch.media_type, media_type),
                    },
                    None => MbFrame::Nack {
                        reason: format!("no such channel {channel:?}"),
                    },
                };
                let _ = ctx.stream_send(stream, reply.encode_framed());
            }
            MbFrame::Data { payload } => {
                let Some(channel_name) = self.producer_of.get(&stream) else {
                    return;
                };
                let Some(ch) = self.channels.get(channel_name) else {
                    return;
                };
                if ch.producer != stream {
                    return; // stale registration
                }
                ctx.busy(FORWARD_COST);
                for (consumer, want_type) in &ch.consumers {
                    // Transformation cost along the lattice.
                    if let Some(cost_per_kib) =
                        self.lattice.conversion_cost(&ch.media_type, want_type)
                    {
                        if !cost_per_kib.is_zero() {
                            let kib = payload.len().div_ceil(1024) as u64;
                            ctx.busy(cost_per_kib * kib);
                        }
                        let frame = MbFrame::Data {
                            payload: payload.clone(),
                        };
                        let _ = ctx.stream_send(*consumer, frame.encode_framed());
                        ctx.bump(simnet::metric_id!("mb.frames_forwarded"), 1);
                    }
                }
            }
            MbFrame::ListChannels => {
                let entries: Vec<(String, String, u32)> = self
                    .channels
                    .iter()
                    .map(|(name, ch)| {
                        (
                            name.clone(),
                            ch.media_type.clone(),
                            ch.consumers.len() as u32,
                        )
                    })
                    .collect();
                let _ = ctx.stream_send(stream, MbFrame::Channels(entries).encode_framed());
            }
            _ => {}
        }
    }
}

impl Default for MediaBroker {
    fn default() -> MediaBroker {
        MediaBroker::new()
    }
}

impl Process for MediaBroker {
    fn name(&self) -> &str {
        "mediabroker"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).expect("broker port free");
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        match event {
            StreamEvent::Accepted { .. } => {
                self.conns.insert(stream, MbAccumulator::new());
            }
            StreamEvent::Data(data) => {
                let Some(acc) = self.conns.get_mut(&stream) else {
                    return;
                };
                acc.push_payload(data);
                loop {
                    let frame = match self.conns.get_mut(&stream).map(|a| a.next()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            ctx.stream_close(stream);
                            break;
                        }
                    };
                    self.handle_frame(ctx, stream, frame);
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                self.conns.remove(&stream);
                if let Some(channel) = self.producer_of.remove(&stream) {
                    self.channels.remove(&channel);
                }
                for ch in self.channels.values_mut() {
                    ch.consumers.retain(|(s, _)| *s != stream);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn frames() -> Vec<MbFrame> {
        vec![
            MbFrame::Produce {
                channel: "cam1".to_owned(),
                media_type: "video/raw".to_owned(),
            },
            MbFrame::Consume {
                channel: "cam1".to_owned(),
                media_type: "image/jpeg".to_owned(),
            },
            MbFrame::Ack,
            MbFrame::Nack {
                reason: "nope".to_owned(),
            },
            MbFrame::Data {
                payload: vec![1; 1400].into(),
            },
            MbFrame::ListChannels,
            MbFrame::Channels(vec![("a".to_owned(), "t".to_owned(), 2)]),
        ]
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let corpus: Vec<Vec<u8>> = frames().iter().map(MbFrame::encode).collect();
        simnet::check_mutations("mb_structured_mutations", &corpus, |m| {
            let shared = MbFrame::decode_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, MbFrame::decode(m));
            shared.map(|f| f.encode())
        });
    }

    #[test]
    fn framing_is_lean() {
        // A 1400-byte payload adds only 9 bytes of framing — contrast with
        // RMI's marshaling overhead.
        let f = MbFrame::Data {
            payload: vec![0; 1400].into(),
        };
        assert_eq!(f.encode_framed().len(), 1400 + 9);
    }

    #[test]
    fn framed_encoding_allocates_once() {
        for frame in frames() {
            let framed = frame.encode_framed();
            assert_eq!(framed.len(), 4 + frame.encode().len(), "{frame:?}");
            assert_eq!(framed.capacity(), framed.len(), "{frame:?}");
        }
    }

    /// Producer registers a channel and sends frames.
    struct Producer {
        broker: Addr,
        acc: MbAccumulator,
        stream: Option<StreamId>,
        acked: bool,
        to_send: u32,
    }
    impl Process for Producer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stream = Some(ctx.connect(self.broker).unwrap());
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            match event {
                StreamEvent::Connected => {
                    let _ = ctx.stream_send(
                        stream,
                        MbFrame::Produce {
                            channel: "cam".to_owned(),
                            media_type: "image/jpeg".to_owned(),
                        }
                        .encode_framed(),
                    );
                }
                StreamEvent::Data(data) => {
                    self.acc.push_payload(data);
                    while let Ok(Some(f)) = self.acc.next() {
                        if f == MbFrame::Ack && !self.acked {
                            self.acked = true;
                            // Give the consumer time to attach.
                            ctx.set_timer(simnet::SimDuration::from_millis(500), 1);
                        }
                    }
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let stream = self.stream.unwrap();
            for _ in 0..self.to_send {
                let _ = ctx.stream_send(
                    stream,
                    MbFrame::Data {
                        payload: vec![7; 1000].into(),
                    }
                    .encode_framed(),
                );
            }
        }
    }

    /// Consumer attaches (retrying while the channel does not exist yet)
    /// and records payloads.
    struct Consumer {
        broker: Addr,
        acc: MbAccumulator,
        want: String,
        got: Rc<RefCell<Vec<usize>>>,
        nack: Rc<RefCell<Option<String>>>,
        stream: Option<StreamId>,
    }
    impl Consumer {
        fn attach(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(stream) = self.stream {
                let _ = ctx.stream_send(
                    stream,
                    MbFrame::Consume {
                        channel: "cam".to_owned(),
                        media_type: self.want.clone(),
                    }
                    .encode_framed(),
                );
            }
        }
    }
    impl Process for Consumer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.broker).unwrap();
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.attach(ctx);
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            match event {
                StreamEvent::Connected => {
                    self.stream = Some(stream);
                    self.attach(ctx);
                }
                StreamEvent::Data(data) => {
                    self.acc.push_payload(data);
                    while let Ok(Some(f)) = self.acc.next() {
                        match f {
                            MbFrame::Data { payload } => self.got.borrow_mut().push(payload.len()),
                            MbFrame::Nack { reason } => {
                                if reason.contains("no such channel") {
                                    // The producer has not registered yet.
                                    ctx.set_timer(simnet::SimDuration::from_millis(100), 1);
                                } else {
                                    *self.nack.borrow_mut() = Some(reason)
                                }
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn broker_world() -> (World, Addr, simnet::NodeId, simnet::NodeId, simnet::NodeId) {
        let mut world = World::new(41);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let b = world.add_node("broker");
        let p = world.add_node("producer");
        let c = world.add_node("consumer");
        for n in [b, p, c] {
            world.attach(n, hub).unwrap();
        }
        world.add_process(b, Box::new(MediaBroker::new()));
        (world, Addr::new(b, BROKER_PORT), b, p, c)
    }

    #[test]
    fn produce_consume_forwarding() {
        let (mut world, broker, _, p, c) = broker_world();
        let got = Rc::new(RefCell::new(Vec::new()));
        let nack = Rc::new(RefCell::new(None));
        world.add_process(
            c,
            Box::new(Consumer {
                broker,
                acc: MbAccumulator::new(),
                want: "image/thumbnail".to_owned(), // downgrade via lattice
                got: Rc::clone(&got),
                nack: Rc::clone(&nack),
                stream: None,
            }),
        );
        world.add_process(
            p,
            Box::new(Producer {
                broker,
                acc: MbAccumulator::new(),
                stream: None,
                acked: false,
                to_send: 5,
            }),
        );
        world.run_until(SimTime::from_secs(5));
        assert_eq!(nack.borrow().clone(), None);
        assert_eq!(got.borrow().len(), 5);
        assert!(got.borrow().iter().all(|n| *n == 1000));
    }

    #[test]
    fn untransformable_consumer_is_nacked() {
        let (mut world, broker, _, p, c) = broker_world();
        let got = Rc::new(RefCell::new(Vec::new()));
        let nack = Rc::new(RefCell::new(None));
        world.add_process(
            c,
            Box::new(Consumer {
                broker,
                acc: MbAccumulator::new(),
                want: "video/raw".to_owned(), // upgrade: impossible
                got: Rc::clone(&got),
                nack: Rc::clone(&nack),
                stream: None,
            }),
        );
        world.add_process(
            p,
            Box::new(Producer {
                broker,
                acc: MbAccumulator::new(),
                stream: None,
                acked: false,
                to_send: 1,
            }),
        );
        world.run_until(SimTime::from_secs(5));
        assert!(nack
            .borrow()
            .as_deref()
            .unwrap_or("")
            .contains("cannot transform"));
        assert!(got.borrow().is_empty());
    }
}
