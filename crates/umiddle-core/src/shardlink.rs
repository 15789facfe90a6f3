//! Cross-shard hand-off encoding for [`UMessage`]s.
//!
//! In a sharded simulation ([`simnet::shard`]) each shard is a separate
//! `World`: a message crossing a shard boundary travels as raw bytes
//! over the conductor's inter-shard link, not as an in-process value.
//! This module is the hand-off codec — a small header followed by the
//! `UMessage` in the wire codec's own layout ([`crate::wire`], the one
//! a path message carries), so the receiving shard's runtime can
//! re-inject it into its own semantic space.
//!
//! The header is little-endian:
//!
//! ```text
//! [u8 version=3]
//! [u8 trace_flag] (1 → [u64 corr][u64 span][u16 src_shard])
//! [UMessage, as the wire codec encodes it]
//! ```
//!
//! The wire codec writes metadata keys in sorted order, so encoding is
//! deterministic: the same message always produces the same bytes,
//! which keeps sharded runs byte-diffable.
//!
//! The optional **trace context** carries the correlation id of the
//! causal path the message is riding, the id of the
//! `shard.xfer.egress` span opened on the sending shard, and the
//! sending shard itself. The receiving shard replays it as a
//! `shard.xfer.ingress` span, which
//! [`simnet::merge_shard_spans`] uses to stitch per-shard traces into
//! one federation-wide journey. The codec is internal to a single
//! simulation binary, so no cross-version compatibility is kept:
//! frames of other versions are rejected like any other unknown
//! version. Version 3 moved the message itself onto the wire codec.

use simnet::{ByteReader, Payload, PayloadBuilder, SpanId};

use crate::error::{CoreError, CoreResult};
use crate::message::UMessage;
use crate::wire::{decode_umessage, encode_umessage};

/// Current hand-off frame version.
const VERSION: u8 = 3;

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

/// Encodes a message plus optional cross-shard trace context into one
/// hand-off frame (single allocation).
pub fn encode_handoff(msg: &UMessage, trace: Option<HandoffTrace>) -> Payload {
    // A traced header is 20 bytes, 64 more cover the MIME type and the
    // length prefixes of a typical message, and `size` counts the body
    // and metadata text.
    let mut w = PayloadBuilder::with_capacity(20 + 64 + msg.size());
    w.push(VERSION);
    match trace {
        Some(t) => {
            w.push(1);
            w.u64_le(t.corr);
            w.u64_le(t.span.0);
            w.u16_le(t.src_shard);
        }
        None => w.push(0),
    }
    encode_umessage(&mut w, msg);
    w.freeze()
}

/// Decodes a hand-off frame into its [`UMessage`] and the trace context
/// it carries, if any. The body is a zero-copy slice of `frame`.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] for a truncated frame, an unknown
/// version, a malformed trace flag, a malformed MIME type, non-UTF-8
/// metadata or trailing bytes.
pub fn decode_handoff(frame: &Payload) -> CoreResult<(UMessage, Option<HandoffTrace>)> {
    let mut r = ByteReader::with_backing(frame);
    let version = r.u8()?;
    if version != VERSION {
        return Err(CoreError::Decode(format!(
            "unknown shard hand-off version {version}"
        )));
    }
    let trace = match r.u8()? {
        0 => None,
        1 => Some(HandoffTrace {
            corr: r.u64_le()?,
            span: SpanId(r.u64_le()?),
            src_shard: r.u16_le()?,
        }),
        flag => {
            return Err(CoreError::Decode(format!(
                "unknown shard hand-off trace flag {flag}"
            )))
        }
    };
    let msg = decode_umessage(&mut r)?;
    r.finish()?;
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
        let f1 = encode_handoff(&msg, None);
        let f2 = encode_handoff(&msg, None);
        assert_eq!(&f1[..], &f2[..], "encoding must be deterministic");
        let (back, trace) = decode_handoff(&f1).unwrap();
        assert_eq!(back, msg);
        assert_eq!(trace, None);
    }

    #[test]
    fn handoff_body_is_zero_copy() {
        let body = vec![7u8; 4096];
        let msg = UMessage::new("application/octet-stream".parse().unwrap(), body);
        let frame = encode_handoff(&msg, None);
        let _ = simnet::payload::take_stats();
        let (back, _) = decode_handoff(&frame).unwrap();
        let during = simnet::payload::take_stats();
        assert_eq!(back.body().len(), 4096);
        assert_eq!(during.bytes_copied, 0, "decoding must not copy the body");
    }

    #[test]
    fn handoff_rejects_garbage() {
        assert!(decode_handoff(&Payload::from_vec(vec![])).is_err());
        assert!(decode_handoff(&Payload::from_vec(vec![VERSION])).is_err());
        assert!(decode_handoff(&Payload::from_vec(vec![9, 0, 0])).is_err());
        // The previous version is rejected like any unknown one.
        let mut old = encode_handoff(&UMessage::text("hi"), None).to_vec();
        old[0] = 2;
        assert!(decode_handoff(&Payload::from_vec(old)).is_err());
        // Unknown trace flag.
        assert!(decode_handoff(&Payload::from_vec(vec![VERSION, 7, 0, 0])).is_err());
        // Trace flag set but context truncated.
        assert!(decode_handoff(&Payload::from_vec(vec![VERSION, 1, 0xAA, 0xBB])).is_err());
    }

    #[test]
    fn handoff_trace_context_round_trips() {
        let msg = UMessage::text("click").with_meta("seq", "3");
        let trace = HandoffTrace {
            corr: (9u64 << 32) | 17,
            span: SpanId(42),
            src_shard: 1,
        };
        let frame = encode_handoff(&msg, Some(trace));
        let (back, got) = decode_handoff(&frame).unwrap();
        assert_eq!(back, msg);
        assert_eq!(got, Some(trace));

        // Untraced frames decode with no context, and the traced frame
        // is strictly larger by the 18-byte context.
        let plain = encode_handoff(&msg, None);
        let (back2, none) = decode_handoff(&plain).unwrap();
        assert_eq!(back2, msg);
        assert_eq!(none, None);
        assert_eq!(frame.len(), plain.len() + 18);
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let msg = UMessage::text("click").with_meta("seq", "3");
        let trace = HandoffTrace {
            corr: 17,
            span: SpanId(42),
            src_shard: 1,
        };
        let corpus: Vec<Vec<u8>> = [None, Some(trace)]
            .map(|t| encode_handoff(&msg, t).to_vec())
            .into();
        simnet::check_mutations("handoff_structured_mutations", &corpus, |m| {
            let (back, t) = decode_handoff(&Payload::copy_from_slice(m)).ok()?;
            Some(encode_handoff(&back, t).to_vec())
        });
    }

    #[test]
    fn empty_message_round_trips() {
        let msg = UMessage::text("");
        let (back, _) = decode_handoff(&encode_handoff(&msg, None)).unwrap();
        assert_eq!(back, msg);
    }
}
