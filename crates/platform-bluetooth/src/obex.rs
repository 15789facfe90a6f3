//! OBEX — the object exchange protocol Bluetooth profiles like BIP build
//! on.
//!
//! The paper's BIP translator "implements the OBEX protocol using the
//! base-protocol support provided by the Bluetooth mapper". We model the
//! packet layer (connect / put / get with headers, chunked bodies,
//! continue responses) as a binary codec plus accumulation over streams.

use simnet::{ByteReader, ChunkQueue, Payload, PayloadBuilder};

/// OBEX opcodes (final-bit variants included where used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Session setup.
    Connect,
    /// Push data (non-final packet).
    Put,
    /// Push data, final packet.
    PutFinal,
    /// Pull data.
    Get,
    /// Success, more packets follow.
    Continue,
    /// Final success.
    Success,
    /// Failure.
    BadRequest,
}

impl Opcode {
    fn to_byte(self) -> u8 {
        match self {
            Opcode::Connect => 0x80,
            Opcode::Put => 0x02,
            Opcode::PutFinal => 0x82,
            Opcode::Get => 0x83,
            Opcode::Continue => 0x90,
            Opcode::Success => 0xA0,
            Opcode::BadRequest => 0xC0,
        }
    }

    fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            0x80 => Opcode::Connect,
            0x02 => Opcode::Put,
            0x82 => Opcode::PutFinal,
            0x83 => Opcode::Get,
            0x90 => Opcode::Continue,
            0xA0 => Opcode::Success,
            0xC0 => Opcode::BadRequest,
            _ => return None,
        })
    }
}

/// OBEX header identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// Object name (UTF-8 here; real OBEX uses UTF-16).
    Name(String),
    /// MIME type of the object.
    Type(String),
    /// Total length of the object being transferred.
    Length(u32),
    /// A body chunk (more follow). Shared [`Payload`]: chunking an
    /// object into PUT packets slices one buffer instead of copying.
    Body(Payload),
    /// The final body chunk.
    EndOfBody(Payload),
    /// Application-specific parameters.
    AppParams(Payload),
}

const HI_NAME: u8 = 0x01;
const HI_TYPE: u8 = 0x42;
const HI_LENGTH: u8 = 0xC3;
const HI_BODY: u8 = 0x48;
const HI_END_OF_BODY: u8 = 0x49;
const HI_APP_PARAMS: u8 = 0x4C;

/// One OBEX packet: opcode plus headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObexPacket {
    /// The operation or response code.
    pub opcode: Opcode,
    /// Headers in order.
    pub headers: Vec<Header>,
}

impl ObexPacket {
    /// Creates a packet.
    pub fn new(opcode: Opcode) -> ObexPacket {
        ObexPacket {
            opcode,
            headers: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, header: Header) -> ObexPacket {
        self.headers.push(header);
        self
    }

    /// First `Name` header, if any.
    pub fn name(&self) -> Option<&str> {
        self.headers.iter().find_map(|h| match h {
            Header::Name(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// First `Type` header, if any.
    pub fn mime_type(&self) -> Option<&str> {
        self.headers.iter().find_map(|h| match h {
            Header::Type(t) => Some(t.as_str()),
            _ => None,
        })
    }

    /// Concatenated body bytes (Body + EndOfBody headers). When the
    /// packet carries a single body header — the common case — this is
    /// an O(1) clone of its shared buffer.
    pub fn body(&self) -> Payload {
        let mut chunks = self.headers.iter().filter_map(|h| match h {
            Header::Body(b) | Header::EndOfBody(b) => Some(b),
            _ => None,
        });
        let Some(first) = chunks.next() else {
            return Payload::new();
        };
        let Some(second) = chunks.next() else {
            return first.clone();
        };
        let mut out = Vec::with_capacity(first.len() + second.len());
        out.extend_from_slice(first);
        out.extend_from_slice(second);
        for b in chunks {
            out.extend_from_slice(b);
        }
        Payload::from_vec(out)
    }

    /// Returns `true` if the packet carries an `EndOfBody` header.
    pub fn is_final_body(&self) -> bool {
        self.headers
            .iter()
            .any(|h| matches!(h, Header::EndOfBody(_)))
    }

    /// Encodes the packet: `opcode (1) | length (2, BE) | headers`.
    /// Everything goes into one buffer: the length field is written as a
    /// placeholder and patched once the headers are in, so there is no
    /// second assemble-then-copy pass.
    pub fn encode(&self) -> Payload {
        let mut out = PayloadBuilder::new();
        out.push(self.opcode.to_byte());
        out.extend_from_slice(&[0, 0]); // length placeholder, patched below
        for h in &self.headers {
            match h {
                Header::Name(s) => put_bytes(&mut out, HI_NAME, s.as_bytes()),
                Header::Type(s) => put_bytes(&mut out, HI_TYPE, s.as_bytes()),
                Header::Length(n) => {
                    out.push(HI_LENGTH);
                    out.u32_be(*n);
                }
                Header::Body(b) => put_bytes(&mut out, HI_BODY, b),
                Header::EndOfBody(b) => put_bytes(&mut out, HI_END_OF_BODY, b),
                Header::AppParams(b) => put_bytes(&mut out, HI_APP_PARAMS, b),
            }
        }
        let total = out.len() as u16;
        out.patch_u16_be(1, total);
        out.freeze()
    }

    /// Decodes one packet from the front of a shared buffer; body
    /// headers come back as zero-copy sub-slices of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on bad packets.
    pub fn decode_payload(buf: &Payload) -> Result<Option<(ObexPacket, usize)>, String> {
        Self::read(ByteReader::with_backing(buf))
    }

    /// Decodes one packet from the front of `buf`. Returns the packet and
    /// bytes consumed, `Ok(None)` if more bytes are needed, or `Err` on a
    /// malformed packet.
    pub fn decode(buf: &[u8]) -> Result<Option<(ObexPacket, usize)>, String> {
        Self::read(ByteReader::new(buf))
    }

    fn read(mut r: ByteReader<'_>) -> Result<Option<(ObexPacket, usize)>, String> {
        let (Ok(op), Ok(total)) = (r.u8(), r.u16_be()) else {
            return Ok(None);
        };
        let opcode = Opcode::from_byte(op).ok_or_else(|| format!("unknown opcode {op:#x}"))?;
        let total = usize::from(total);
        let headers_len = total.checked_sub(3).ok_or("packet length too small")?;
        let Ok(mut r) = r.reader(headers_len) else {
            return Ok(None);
        };
        let mut headers = Vec::new();
        while let Ok(hi) = r.u8() {
            headers.push(match hi {
                HI_LENGTH => Header::Length(r.u32_be().map_err(|_| "truncated length header")?),
                HI_NAME | HI_TYPE | HI_BODY | HI_END_OF_BODY | HI_APP_PARAMS => {
                    let hlen = r.u16_be().map_err(|_| "truncated header length")?;
                    let n = usize::from(hlen)
                        .checked_sub(3)
                        .filter(|&n| n <= r.remaining())
                        .ok_or("bad header length")?;
                    let mut bytes = || r.payload(n).map_err(|e| e.to_string());
                    match hi {
                        HI_NAME => {
                            Header::Name(r.utf8(n).map_err(|_| "bad utf-8 name")?.to_owned())
                        }
                        HI_TYPE => {
                            Header::Type(r.utf8(n).map_err(|_| "bad utf-8 type")?.to_owned())
                        }
                        HI_BODY => Header::Body(bytes()?),
                        HI_END_OF_BODY => Header::EndOfBody(bytes()?),
                        _ => Header::AppParams(bytes()?),
                    }
                }
                other => return Err(format!("unknown header id {other:#x}")),
            });
        }
        Ok(Some((ObexPacket { opcode, headers }, total)))
    }
}

fn put_bytes(out: &mut PayloadBuilder, hi: u8, data: &[u8]) {
    out.push(hi);
    out.u16_be((data.len() + 3) as u16);
    out.extend_from_slice(data);
}

/// Accumulates stream bytes and yields complete OBEX packets.
///
/// Built on [`ChunkQueue`]: arriving stream chunks queue without
/// concatenation and each packet is extracted in O(packet) time.
#[derive(Debug, Default)]
pub struct ObexAccumulator {
    buf: ChunkQueue,
}

impl ObexAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> ObexAccumulator {
        ObexAccumulator::default()
    }

    /// Feeds received bytes (one copy into a fresh chunk).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push_slice(bytes);
    }

    /// Feeds a shared chunk without copying — the path stream handlers
    /// use with `StreamEvent::Data` payloads.
    pub fn push_payload(&mut self, chunk: Payload) {
        self.buf.push(chunk);
    }

    /// Pops the next complete packet, if any.
    ///
    /// # Errors
    ///
    /// Returns a description on malformed packets; the buffered bytes are
    /// discarded so the session can be aborted cleanly.
    #[allow(clippy::should_implement_trait)] // framer convention, not an Iterator
    pub fn next(&mut self) -> Result<Option<ObexPacket>, String> {
        if self.buf.len() < 3 {
            return Ok(None);
        }
        let mut hdr = [0u8; 3];
        self.buf.peek_into(&mut hdr);
        if Opcode::from_byte(hdr[0]).is_none() {
            self.buf.clear();
            return Err(format!("unknown opcode {:#x}", hdr[0]));
        }
        let total = u16::from_be_bytes([hdr[1], hdr[2]]) as usize;
        if total < 3 {
            self.buf.clear();
            return Err("packet length too small".to_owned());
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let packet = self.buf.take(total);
        match ObexPacket::decode_payload(&packet) {
            Ok(Some((pkt, _used))) => Ok(Some(pkt)),
            Ok(None) => Ok(None),
            Err(e) => {
                self.buf.clear();
                Err(e)
            }
        }
    }
}

/// Splits an object into OBEX PUT packets of at most `chunk` body bytes.
/// Passing a [`Payload`] shares the object buffer: every packet's body is
/// a zero-copy slice of it.
pub fn put_packets(
    name: &str,
    mime: &str,
    data: impl Into<Payload>,
    chunk: usize,
) -> Vec<ObexPacket> {
    let data = data.into();
    let chunk = chunk.max(1);
    let mut packets = Vec::new();
    let n = data.len();
    let mut offset = 0;
    let mut first = true;
    loop {
        let end = (offset + chunk).min(n);
        let last = end == n;
        let mut pkt = ObexPacket::new(if last { Opcode::PutFinal } else { Opcode::Put });
        if first {
            pkt = pkt
                .with_header(Header::Name(name.to_owned()))
                .with_header(Header::Type(mime.to_owned()))
                .with_header(Header::Length(n as u32));
            first = false;
        }
        let body = data.slice(offset..end);
        pkt = pkt.with_header(if last {
            Header::EndOfBody(body)
        } else {
            Header::Body(body)
        });
        packets.push(pkt);
        if last {
            break;
        }
        offset = end;
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_round_trip() {
        let pkt = ObexPacket::new(Opcode::PutFinal)
            .with_header(Header::Name("img01.jpg".to_owned()))
            .with_header(Header::Type("image/jpeg".to_owned()))
            .with_header(Header::Length(5))
            .with_header(Header::EndOfBody(vec![1, 2, 3, 4, 5].into()));
        let bytes = pkt.encode();
        let (back, used) = ObexPacket::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, pkt);
        assert_eq!(back.name(), Some("img01.jpg"));
        assert_eq!(back.mime_type(), Some("image/jpeg"));
        assert_eq!(back.body(), vec![1, 2, 3, 4, 5]);
        assert!(back.is_final_body());
    }

    #[test]
    fn partial_packets_wait() {
        let bytes = ObexPacket::new(Opcode::Connect).encode();
        let mut acc = ObexAccumulator::new();
        acc.push(&bytes[..2]);
        assert_eq!(acc.next().unwrap(), None);
        acc.push(&bytes[2..]);
        assert_eq!(acc.next().unwrap().unwrap().opcode, Opcode::Connect);
    }

    #[test]
    fn put_packets_reassemble() {
        let data: Vec<u8> = (0..=255).cycle().take(2000).map(|b: u16| b as u8).collect();
        let packets = put_packets("x.bin", "application/octet-stream", &data[..], 512);
        assert_eq!(packets.len(), 4);
        assert_eq!(packets[0].name(), Some("x.bin"));
        assert!(packets.last().unwrap().is_final_body());
        let mut got = Vec::new();
        for p in &packets {
            got.extend(p.body());
        }
        assert_eq!(got, data);
    }

    #[test]
    fn empty_object_is_single_final_packet() {
        let packets = put_packets("empty", "text/plain", &[], 512);
        assert_eq!(packets.len(), 1);
        assert!(packets[0].is_final_body());
        assert!(packets[0].body().is_empty());
    }

    #[test]
    fn malformed_packets_error_not_panic() {
        assert!(ObexPacket::decode(&[0xFF, 0x00, 0x03]).is_err());
        assert!(ObexPacket::decode(&[0x80, 0x00, 0x02]).is_err());
        // Bad header id inside a well-formed envelope.
        assert!(ObexPacket::decode(&[0x80, 0x00, 0x04, 0x77]).is_err());
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let mut corpus: Vec<Vec<u8>> = put_packets("img01.jpg", "image/jpeg", &[7u8; 40][..], 16)
            .iter()
            .map(|p| p.encode().to_vec())
            .collect();
        let app = ObexPacket::new(Opcode::Get).with_header(Header::AppParams(vec![1, 2].into()));
        corpus.push(app.encode().to_vec());
        simnet::check_mutations("obex_structured_mutations", &corpus, |m| {
            let shared = ObexPacket::decode_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, ObexPacket::decode(m));
            let (packet, used) = shared.ok()??;
            (used == m.len()).then(|| packet.encode().to_vec())
        });
    }

    #[test]
    fn chunking_preserves_data() {
        simnet::check_cases("obex_chunking_preserves_data", 256, |_, rng| {
            let len = rng.gen_range(0usize..4096);
            let data = rng.gen_bytes(len);
            let chunk = rng.gen_range(1usize..1024);
            let packets = put_packets("n", "t/t", &data[..], chunk);
            let mut got = Vec::new();
            for p in &packets {
                got.extend(p.body());
            }
            assert_eq!(got, data);
            assert!(packets.last().unwrap().is_final_body());
        });
    }
}
