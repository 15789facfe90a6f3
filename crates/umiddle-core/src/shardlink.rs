//! Cross-shard hand-off encoding for [`UMessage`]s.
//!
//! In a sharded simulation ([`simnet::shard`]) each shard is a separate
//! `World`: a message crossing a shard boundary travels as raw bytes
//! over the conductor's inter-shard link, not as an in-process value.
//! This module is the hand-off codec — a small self-describing frame
//! that carries a `UMessage` (MIME type, metadata, body) across the
//! boundary so the receiving shard's runtime can re-inject it into its
//! own semantic space.
//!
//! The layout is little-endian and length-prefixed throughout:
//!
//! ```text
//! [u8 version=2]
//! [u8 trace_flag] (1 → [u64 corr][u64 span][u16 src_shard])
//! [u16 mime_len][mime bytes]
//! [u16 meta_count] ([u16 key_len][key][u16 val_len][val])*
//! [u32 body_len][body bytes]
//! ```
//!
//! Metadata keys are written in sorted order (the `UMessage` map is a
//! `BTreeMap`), so encoding is deterministic: the same message always
//! produces the same bytes, which keeps sharded runs byte-diffable.
//!
//! Version 2 added the optional **trace context** — the correlation id
//! of the causal path the message is riding, the id of the
//! `shard.xfer.egress` span opened on the sending shard, and the
//! sending shard itself. The receiving shard replays it as a
//! `shard.xfer.ingress` span, which
//! [`simnet::merge_shard_spans`] uses to stitch per-shard traces into
//! one federation-wide journey. The codec is internal to a single
//! simulation binary, so no cross-version compatibility is kept:
//! version 1 frames are rejected like any other unknown version.

use simnet::{Payload, PayloadBuilder, SpanId};

use crate::error::{CoreError, CoreResult};
use crate::message::UMessage;

/// Current hand-off frame version.
const VERSION: u8 = 2;

/// The causal trace context a hand-off frame can carry across the
/// shard boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffTrace {
    /// Correlation id of the path on the sending shard (globally unique
    /// — corr ids embed the minting runtime's id).
    pub corr: u64,
    /// The `shard.xfer.egress` span recorded by the sending shard.
    pub span: SpanId,
    /// The sending shard.
    pub src_shard: u16,
}

/// Encodes a message into one hand-off frame (single allocation).
pub fn encode_handoff(msg: &UMessage) -> Payload {
    encode_handoff_traced(msg, None)
}

/// Encodes a message plus optional cross-shard trace context.
pub fn encode_handoff_traced(msg: &UMessage, trace: Option<HandoffTrace>) -> Payload {
    let mime = msg.mime().to_string();
    let mut b = PayloadBuilder::with_capacity(34 + mime.len() + msg.size());
    b.push(VERSION);
    match trace {
        Some(t) => {
            b.push(1);
            b.extend_from_slice(&t.corr.to_le_bytes());
            b.extend_from_slice(&t.span.0.to_le_bytes());
            b.u16_le(t.src_shard);
        }
        None => b.push(0),
    }
    b.u16_le(mime.len() as u16);
    b.extend_from_slice(mime.as_bytes());
    b.u16_le(msg.wire_metas().count() as u16);
    let mut digits = [0; 20];
    for (k, v) in msg.wire_metas() {
        b.u16_le(k.len() as u16);
        b.extend_from_slice(k.as_bytes());
        let v = v.bytes(&mut digits);
        b.u16_le(v.len() as u16);
        b.extend_from_slice(v);
    }
    let body = msg.body();
    b.u32_le(body.len() as u32);
    b.extend_from_slice(body);
    b.freeze()
}

/// Decodes a hand-off frame back into a [`UMessage`], discarding any
/// trace context.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] for a truncated frame, an unknown
/// version, a malformed MIME type, or non-UTF-8 metadata.
pub fn decode_handoff(frame: &Payload) -> CoreResult<UMessage> {
    decode_handoff_traced(frame).map(|(msg, _)| msg)
}

/// Decodes a hand-off frame plus the trace context it carries, if any.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] for a truncated frame, an unknown
/// version, a malformed trace flag, a malformed MIME type, or
/// non-UTF-8 metadata.
pub fn decode_handoff_traced(frame: &Payload) -> CoreResult<(UMessage, Option<HandoffTrace>)> {
    let bytes: &[u8] = frame;
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> CoreResult<&[u8]> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| CoreError::Decode("truncated shard hand-off frame".into()))?;
        let s = &bytes[*at..end];
        *at = end;
        Ok(s)
    };
    let version = take(&mut at, 1)?[0];
    if version != VERSION {
        return Err(CoreError::Decode(format!(
            "unknown shard hand-off version {version}"
        )));
    }
    let trace = match take(&mut at, 1)?[0] {
        0 => None,
        1 => {
            let corr = {
                let s = take(&mut at, 8)?;
                u64::from_le_bytes(s.try_into().expect("8-byte slice"))
            };
            let span = {
                let s = take(&mut at, 8)?;
                SpanId(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
            };
            let src_shard = {
                let s = take(&mut at, 2)?;
                u16::from_le_bytes([s[0], s[1]])
            };
            Some(HandoffTrace {
                corr,
                span,
                src_shard,
            })
        }
        flag => {
            return Err(CoreError::Decode(format!(
                "unknown shard hand-off trace flag {flag}"
            )))
        }
    };
    let take_u16 = |at: &mut usize| -> CoreResult<usize> {
        let s = take(at, 2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]) as usize)
    };
    let take_str = |at: &mut usize| -> CoreResult<String> {
        let n = take_u16(at)?;
        String::from_utf8(take(at, n)?.to_vec())
            .map_err(|_| CoreError::Decode("non-UTF-8 string in shard hand-off".into()))
    };

    let mime = take_str(&mut at)?.parse()?;
    let meta_count = take_u16(&mut at)?;
    let mut metas = Vec::with_capacity(meta_count);
    for _ in 0..meta_count {
        let k = take_str(&mut at)?;
        let v = take_str(&mut at)?;
        metas.push((k, v));
    }
    let body_len = {
        let s = take(&mut at, 4)?;
        u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize
    };
    if at + body_len != bytes.len() {
        return Err(CoreError::Decode(format!(
            "shard hand-off body length {body_len} does not match frame ({} bytes left)",
            bytes.len() - at
        )));
    }
    // O(1) slice of the arriving payload: the body crosses the shard
    // boundary without a copy.
    let body = frame.slice(at..at + body_len);
    let mut msg = UMessage::new(mime, body);
    for (k, v) in metas {
        msg = msg.with_meta(k, v);
    }
    Ok((msg, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_round_trips_and_is_deterministic() {
        let msg = UMessage::new(
            "application/json".parse().unwrap(),
            br#"{"t":21.5}"#.to_vec(),
        )
        .with_meta("src", "mote-7")
        .with_meta("seq", "42")
        .with_meta("unit", "celsius");
        let f1 = encode_handoff(&msg);
        let f2 = encode_handoff(&msg);
        assert_eq!(&f1[..], &f2[..], "encoding must be deterministic");
        let back = decode_handoff(&f1).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn handoff_body_is_zero_copy() {
        let body = vec![7u8; 4096];
        let msg = UMessage::new("application/octet-stream".parse().unwrap(), body);
        let frame = encode_handoff(&msg);
        let _ = simnet::payload::take_stats();
        let back = decode_handoff(&frame).unwrap();
        let during = simnet::payload::take_stats();
        assert_eq!(back.body().len(), 4096);
        assert_eq!(during.bytes_copied, 0, "decoding must not copy the body");
    }

    #[test]
    fn handoff_rejects_garbage() {
        assert!(decode_handoff(&Payload::from_vec(vec![])).is_err());
        assert!(decode_handoff(&Payload::from_vec(vec![9, 0, 0])).is_err());
        // Unknown trace flag.
        assert!(decode_handoff(&Payload::from_vec(vec![VERSION, 7, 0, 0])).is_err());
        // Trace flag set but context truncated.
        assert!(decode_handoff(&Payload::from_vec(vec![VERSION, 1, 0xAA, 0xBB])).is_err());
        let mut good = encode_handoff(&UMessage::text("hi")).to_vec();
        good.push(0xFF); // trailing byte: length mismatch
        assert!(decode_handoff(&Payload::from_vec(good)).is_err());
    }

    #[test]
    fn handoff_trace_context_round_trips() {
        let msg = UMessage::text("click").with_meta("seq", "3");
        let trace = HandoffTrace {
            corr: (9u64 << 32) | 17,
            span: SpanId(42),
            src_shard: 1,
        };
        let frame = encode_handoff_traced(&msg, Some(trace));
        let (back, got) = decode_handoff_traced(&frame).unwrap();
        assert_eq!(back, msg);
        assert_eq!(got, Some(trace));

        // Untraced frames decode with no context, and the traced frame
        // is strictly larger by the 18-byte context.
        let plain = encode_handoff(&msg);
        let (back2, none) = decode_handoff_traced(&plain).unwrap();
        assert_eq!(back2, msg);
        assert_eq!(none, None);
        assert_eq!(frame.len(), plain.len() + 18);
    }

    #[test]
    fn empty_message_round_trips() {
        let msg = UMessage::text("");
        let back = decode_handoff(&encode_handoff(&msg)).unwrap();
        assert_eq!(back, msg);
    }
}
