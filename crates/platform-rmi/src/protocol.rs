//! The JRMP-like call protocol and the registry wire format.
//!
//! Every remote call is a length-prefixed frame over a stream, preceded by
//! a distributed-garbage-collection ping/ack pair (the chatter that,
//! together with marshaling verbosity, keeps RMI throughput low in the
//! paper's Figure 11).

use simnet::{ByteReader, ChunkQueue, DecodeError, Payload, PayloadBuilder};

use crate::marshal::JavaValue;

/// Frames exchanged with RMI endpoints (object servers and the registry).
#[derive(Debug, Clone, PartialEq)]
pub enum RmiFrame {
    /// DGC liveness ping sent before each call.
    Ping,
    /// DGC ping acknowledgment.
    PingAck,
    /// A remote method invocation.
    Call {
        /// Correlation id.
        call_id: u64,
        /// Bound object name.
        object: String,
        /// Method name.
        method: String,
        /// Marshaled arguments.
        args: Vec<JavaValue>,
    },
    /// A normal return.
    Return {
        /// Correlation id from the call.
        call_id: u64,
        /// The marshaled result.
        result: JavaValue,
    },
    /// A remote exception.
    Exception {
        /// Correlation id from the call.
        call_id: u64,
        /// Exception message.
        message: String,
    },
    /// Registry: bind a name to an object endpoint `(node index, port)`.
    Bind {
        /// The name to bind.
        name: String,
        /// Node index of the object server.
        node: u32,
        /// Stream port of the object server.
        port: u16,
    },
    /// Registry: look up a name.
    Lookup {
        /// Correlation id.
        call_id: u64,
        /// The name to resolve.
        name: String,
    },
    /// Registry: lookup result (`None` encoded as a `NotBound` exception).
    LookupResult {
        /// Correlation id from the lookup.
        call_id: u64,
        /// Node index of the object server.
        node: u32,
        /// Stream port of the object server.
        port: u16,
    },
}

const TAG_PING: u8 = 1;
const TAG_PING_ACK: u8 = 2;
const TAG_CALL: u8 = 3;
const TAG_RETURN: u8 = 4;
const TAG_EXCEPTION: u8 = 5;
const TAG_BIND: u8 = 6;
const TAG_LOOKUP: u8 = 7;
const TAG_LOOKUP_RESULT: u8 = 8;

/// A marshaled value after its `u32` length, written in place.
fn put_value(out: &mut PayloadBuilder, v: &JavaValue) {
    out.u32_be(v.marshaled_len() as u32);
    v.marshal_into(out);
}

/// A `u16`-length-prefixed string's encoded size.
fn str16_len(s: &str) -> usize {
    2 + s.len().min(usize::from(u16::MAX))
}

/// A length-prefixed marshaled value's encoded size.
fn value_len(v: &JavaValue) -> usize {
    4 + v.marshaled_len()
}

/// A whole `Call` frame body (tag included).
fn put_call(
    out: &mut PayloadBuilder,
    call_id: u64,
    object: &str,
    method: &str,
    args: &[JavaValue],
) {
    out.push(TAG_CALL);
    out.u64_be(call_id);
    out.str16_be(object);
    out.str16_be(method);
    out.u16_be(args.len() as u16);
    for a in args {
        put_value(out, a);
    }
}

/// Bytes [`put_call`] writes.
fn call_len(object: &str, method: &str, args: &[JavaValue]) -> usize {
    1 + 8 + str16_len(object) + str16_len(method) + 2 + args.iter().map(value_len).sum::<usize>()
}

/// A length-prefixed marshaled value, unmarshaled from its own view of
/// the frame.
fn read_value(r: &mut ByteReader<'_>) -> Result<JavaValue, DecodeError> {
    let n = r.u32_be()? as usize;
    JavaValue::unmarshal_payload(&r.payload(n)?).ok_or(DecodeError::Malformed)
}

impl RmiFrame {
    /// Encodes the frame body (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = PayloadBuilder::new();
        self.encode_into(&mut out);
        out.into_vec()
    }

    fn encode_into(&self, out: &mut PayloadBuilder) {
        match self {
            RmiFrame::Ping => out.push(TAG_PING),
            RmiFrame::PingAck => out.push(TAG_PING_ACK),
            RmiFrame::Call {
                call_id,
                object,
                method,
                args,
            } => put_call(out, *call_id, object, method, args),
            RmiFrame::Return { call_id, result } => {
                out.push(TAG_RETURN);
                out.u64_be(*call_id);
                put_value(out, result);
            }
            RmiFrame::Exception { call_id, message } => {
                out.push(TAG_EXCEPTION);
                out.u64_be(*call_id);
                out.str16_be(message);
            }
            RmiFrame::Bind { name, node, port } => {
                out.push(TAG_BIND);
                out.str16_be(name);
                out.u32_be(*node);
                out.u16_be(*port);
            }
            RmiFrame::Lookup { call_id, name } => {
                out.push(TAG_LOOKUP);
                out.u64_be(*call_id);
                out.str16_be(name);
            }
            RmiFrame::LookupResult {
                call_id,
                node,
                port,
            } => {
                out.push(TAG_LOOKUP_RESULT);
                out.u64_be(*call_id);
                out.u32_be(*node);
                out.u16_be(*port);
            }
        }
    }

    /// Encodes with a `u32` length prefix for stream framing, prefix and
    /// body in one buffer allocated once.
    pub fn encode_framed(&self) -> Payload {
        PayloadBuilder::u32_framed(u32::to_be_bytes, self.encoded_len(), |out| {
            self.encode_into(out)
        })
    }

    /// Encodes a [`RmiFrame::Call`] from borrowed parts, byte for byte
    /// what `encode_framed` writes for the owned frame, so a caller on a
    /// ready connection builds no frame.
    pub fn encode_call_framed(
        call_id: u64,
        object: &str,
        method: &str,
        args: &[JavaValue],
    ) -> Payload {
        PayloadBuilder::u32_framed(u32::to_be_bytes, call_len(object, method, args), |out| {
            put_call(out, call_id, object, method, args)
        })
    }

    /// Bytes [`encode`](RmiFrame::encode) writes.
    fn encoded_len(&self) -> usize {
        match self {
            RmiFrame::Ping | RmiFrame::PingAck => 1,
            RmiFrame::Call {
                object,
                method,
                args,
                ..
            } => call_len(object, method, args),
            RmiFrame::Return { result, .. } => 1 + 8 + value_len(result),
            RmiFrame::Exception { message, .. } => 1 + 8 + str16_len(message),
            RmiFrame::Bind { name, .. } => 1 + str16_len(name) + 4 + 2,
            RmiFrame::Lookup { name, .. } => 1 + 8 + str16_len(name),
            RmiFrame::LookupResult { .. } => 1 + 8 + 4 + 2,
        }
    }

    /// Decodes a frame body from a shared buffer; marshaled `byte[]`
    /// arguments come back as zero-copy sub-slices of `frame`.
    pub fn decode_payload(frame: &Payload) -> Option<RmiFrame> {
        Self::read(ByteReader::with_backing(frame)).ok()
    }

    /// Decodes a frame body.
    pub fn decode(bytes: &[u8]) -> Option<RmiFrame> {
        Self::read(ByteReader::new(bytes)).ok()
    }

    fn read(mut r: ByteReader<'_>) -> Result<RmiFrame, DecodeError> {
        let frame = match r.u8()? {
            TAG_PING => RmiFrame::Ping,
            TAG_PING_ACK => RmiFrame::PingAck,
            TAG_CALL => {
                let call_id = r.u64_be()?;
                let object = r.str16_be()?.to_owned();
                let method = r.str16_be()?.to_owned();
                let n = usize::from(r.u16_be()?);
                let mut args = Vec::with_capacity(r.capacity_for(n));
                for _ in 0..n {
                    args.push(read_value(&mut r)?);
                }
                RmiFrame::Call {
                    call_id,
                    object,
                    method,
                    args,
                }
            }
            TAG_RETURN => RmiFrame::Return {
                call_id: r.u64_be()?,
                result: read_value(&mut r)?,
            },
            TAG_EXCEPTION => RmiFrame::Exception {
                call_id: r.u64_be()?,
                message: r.str16_be()?.to_owned(),
            },
            TAG_BIND => RmiFrame::Bind {
                name: r.str16_be()?.to_owned(),
                node: r.u32_be()?,
                port: r.u16_be()?,
            },
            TAG_LOOKUP => RmiFrame::Lookup {
                call_id: r.u64_be()?,
                name: r.str16_be()?.to_owned(),
            },
            TAG_LOOKUP_RESULT => RmiFrame::LookupResult {
                call_id: r.u64_be()?,
                node: r.u32_be()?,
                port: r.u16_be()?,
            },
            _ => return Err(DecodeError::Malformed),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Accumulates stream bytes into frames.
///
/// Built on [`ChunkQueue`]: stream chunks are queued without
/// concatenation and each frame is extracted in O(frame) time, so a
/// burst of buffered calls decodes linearly instead of quadratically.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: ChunkQueue,
}

impl FrameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Feeds borrowed bytes (one copy into a fresh chunk).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push_slice(bytes);
    }

    /// Feeds a shared chunk without copying — the path stream handlers
    /// use with `StreamEvent::Data` payloads.
    pub fn push_payload(&mut self, chunk: Payload) {
        self.buf.push(chunk);
    }

    /// Pops the next complete frame.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed frames (buffer is cleared).
    #[allow(clippy::should_implement_trait)] // framer convention, not an Iterator
    pub fn next(&mut self) -> Result<Option<RmiFrame>, String> {
        let Some(body) = self.buf.pop_u32_frame(u32::from_be_bytes) else {
            return Ok(None);
        };
        match RmiFrame::decode_payload(&body) {
            Some(f) => Ok(Some(f)),
            None => {
                self.buf.clear();
                Err("malformed RMI frame".to_owned())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<RmiFrame> {
        vec![
            RmiFrame::Ping,
            RmiFrame::PingAck,
            RmiFrame::Call {
                call_id: 9,
                object: "EchoService".to_owned(),
                method: "echo".to_owned(),
                args: vec![JavaValue::Bytes(vec![1; 64].into()), JavaValue::Int(5)],
            },
            RmiFrame::Return {
                call_id: 9,
                result: JavaValue::Str("ok".to_owned()),
            },
            RmiFrame::Exception {
                call_id: 9,
                message: "java.rmi.NotBoundException".to_owned(),
            },
            RmiFrame::Bind {
                name: "EchoService".to_owned(),
                node: 3,
                port: 2099,
            },
            RmiFrame::Lookup {
                call_id: 1,
                name: "EchoService".to_owned(),
            },
            RmiFrame::LookupResult {
                call_id: 1,
                node: 3,
                port: 2099,
            },
        ]
    }

    #[test]
    fn accumulator_reassembles_chunked_frames() {
        let mut wire = Vec::new();
        for f in frames() {
            wire.extend(f.encode_framed());
        }
        let mut acc = FrameAccumulator::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            acc.push(chunk);
            while let Some(f) = acc.next().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames());
    }

    #[test]
    fn a_borrowed_call_encodes_like_the_owned_frame() {
        for frame in frames() {
            if let RmiFrame::Call {
                call_id,
                object,
                method,
                args,
            } = &frame
            {
                let borrowed = RmiFrame::encode_call_framed(*call_id, object, method, args);
                assert_eq!(borrowed, frame.encode_framed());
            }
        }
    }

    #[test]
    fn frames_encode_to_their_golden_bytes() {
        let hex =
            |f: &RmiFrame| -> String { f.encode().iter().map(|b| format!("{b:02x}")).collect() };
        let golden = [
            "01".to_owned(),
            "02".to_owned(),
            format!(
                "030000000000000009000b4563686f5365727669636500046563686f0002\
                 0000004baced4200025b4200000040{}\
                 0000000caced490003696e7400000005",
                "01".repeat(64)
            ),
            "04000000000000000900000019aced7400106a6176612e6c616e672e537472696e6700026f6b"
                .to_owned(),
            "050000000000000009001a6a6176612e726d692e4e6f74426f756e64457863657074696f6e".to_owned(),
            "06000b4563686f53657276696365000000030833".to_owned(),
            "070000000000000001000b4563686f53657276696365".to_owned(),
            "080000000000000001000000030833".to_owned(),
        ];
        let frames = frames();
        assert_eq!(frames.len(), golden.len());
        for (frame, golden) in frames.iter().zip(golden) {
            assert_eq!(hex(frame), golden, "{frame:?}");
        }
    }

    #[test]
    fn framed_encoding_allocates_once() {
        let echo = RmiFrame::Call {
            call_id: 1,
            object: "EchoService".to_owned(),
            method: "echo_ack".to_owned(),
            args: vec![JavaValue::Bytes(vec![7; 1400].into())],
        };
        for frame in frames().iter().chain([&echo]) {
            let framed = frame.encode_framed();
            assert_eq!(framed.len(), 4 + frame.encode().len(), "{frame:?}");
            assert_eq!(framed.capacity(), framed.len(), "{frame:?}");
        }
    }

    #[test]
    fn malformed_frame_is_an_error() {
        let mut acc = FrameAccumulator::new();
        acc.push(&[0, 0, 0, 1, 0xEE]);
        assert!(acc.next().is_err());
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let corpus: Vec<Vec<u8>> = frames().iter().map(RmiFrame::encode).collect();
        simnet::check_mutations("rmi_structured_mutations", &corpus, |m| {
            let shared = RmiFrame::decode_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, RmiFrame::decode(m));
            shared.map(|f| f.encode())
        });
    }
}
