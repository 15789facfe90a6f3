//! Inquiry (device discovery) and the shared device-side plumbing.
//!
//! Bluetooth discovery is *inquiry*: a host broadcasts on the inquiry
//! channel; devices in inquiry-scan mode answer after a scan-window delay
//! with their address, name and class. We model the channel as a
//! multicast group on the piconet segment.

use simnet::{Addr, ByteReader, Ctx, Datagram, SimDuration, StreamEvent, StreamId};

use crate::calib;
use crate::sdp::{SdpPdu, ServiceRecord, PSM_SDP};

/// The inquiry multicast group on a piconet segment.
pub const INQUIRY_GROUP: u16 = 4096;

/// Inquiry channel messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InquiryMessage {
    /// A host looks for devices; responses go to the datagram source.
    Inquiry,
    /// A device answers with its identity.
    Response {
        /// Device name.
        name: String,
        /// Class-of-device bits (`0x2540` keyboard, `0x2580` mouse,
        /// `0x0680` imaging, …).
        class: u32,
    },
}

impl InquiryMessage {
    /// Encodes the message.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            InquiryMessage::Inquiry => vec![0x01],
            InquiryMessage::Response { name, class } => {
                let mut out = vec![0x02];
                out.extend_from_slice(&class.to_be_bytes());
                out.extend_from_slice(name.as_bytes());
                out
            }
        }
    }

    /// Decodes a message; `None` on garbage.
    pub fn decode(bytes: &[u8]) -> Option<InquiryMessage> {
        let mut r = ByteReader::new(bytes);
        let msg = match r.u8().ok()? {
            0x01 => InquiryMessage::Inquiry,
            0x02 => InquiryMessage::Response {
                class: r.u32_be().ok()?,
                // The name runs to the end of the datagram.
                name: r.utf8(r.remaining()).ok()?.to_owned(),
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(msg)
    }
}

/// Shared device-side behaviour: inquiry-scan responses and the SDP
/// server. Device processes (mouse, camera, printer) embed one and
/// forward their events.
#[derive(Debug)]
pub struct BtDeviceCore {
    /// Device name reported in inquiry responses.
    pub name: String,
    /// Class-of-device bits.
    pub class: u32,
    /// SDP records describing the device's services.
    pub records: Vec<ServiceRecord>,
    /// Timer token base reserved for deferred inquiry responses.
    inquiry_timer_base: u64,
    pending_responses: Vec<Addr>,
}

impl BtDeviceCore {
    /// Creates the core. `inquiry_timer_base` is the first timer token the
    /// core may use; it consumes tokens `base..base+2^16`.
    pub fn new(
        name: &str,
        class: u32,
        records: Vec<ServiceRecord>,
        inquiry_timer_base: u64,
    ) -> BtDeviceCore {
        BtDeviceCore {
            name: name.to_owned(),
            class,
            records,
            inquiry_timer_base,
            pending_responses: Vec::new(),
        }
    }

    /// Joins the inquiry channel and starts the SDP listener; call from
    /// `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.join_group(INQUIRY_GROUP);
        ctx.listen(PSM_SDP).expect("sdp psm free");
    }

    /// Handles an inquiry datagram; call from `on_datagram`. Responses
    /// are deferred by a random scan-window delay.
    pub fn handle_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) {
        if InquiryMessage::decode(&dgram.data) != Some(InquiryMessage::Inquiry) {
            return;
        }
        let min = calib::INQUIRY_RESPONSE_MIN.as_nanos();
        let max = calib::INQUIRY_RESPONSE_MAX.as_nanos();
        let delay = SimDuration::from_nanos(ctx.rng().gen_range(min..=max));
        self.pending_responses.push(dgram.src);
        let token = self.inquiry_timer_base + (self.pending_responses.len() as u64 - 1);
        ctx.set_timer(delay, token);
    }

    /// Handles a timer; returns `true` if it was an inquiry-response
    /// token. Call from `on_timer` before device-specific tokens.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        let Some(idx) = token.checked_sub(self.inquiry_timer_base) else {
            return false;
        };
        let Some(&target) = self.pending_responses.get(idx as usize) else {
            return false;
        };
        let resp = InquiryMessage::Response {
            name: self.name.clone(),
            class: self.class,
        };
        let _ = ctx.send_to(PSM_SDP, target, resp.encode());
        true
    }

    /// Handles SDP traffic on an accepted stream; returns `true` if the
    /// event was consumed (i.e. it was SDP data). Devices call this first
    /// from `on_stream`; other streams belong to their profiles.
    pub fn handle_sdp_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: &StreamEvent,
    ) -> bool {
        match event {
            StreamEvent::Data(data) => {
                let Some(SdpPdu::SearchRequest {
                    transaction,
                    pattern,
                }) = SdpPdu::decode(data)
                else {
                    return false;
                };
                ctx.busy(calib::SDP_PROCESS);
                let records: Vec<ServiceRecord> = self
                    .records
                    .iter()
                    .filter(|r| SdpPdu::pattern_matches(&pattern, r))
                    .cloned()
                    .collect();
                let resp = SdpPdu::SearchResponse {
                    transaction,
                    records,
                };
                let _ = ctx.stream_send(stream, resp.encode());
                ctx.stream_close(stream);
                ctx.bump("bt.sdp_searches", 1);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inquiry_messages_round_trip() {
        for m in [
            InquiryMessage::Inquiry,
            InquiryMessage::Response {
                name: "Pocket Camera".to_owned(),
                class: 0x0680,
            },
        ] {
            assert_eq!(InquiryMessage::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(InquiryMessage::decode(&[]), None);
        assert_eq!(InquiryMessage::decode(&[0x03]), None);
        assert_eq!(InquiryMessage::decode(&[0x02, 1]), None);
        assert_eq!(InquiryMessage::decode(&[0x01, 0x01]), None);
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        // A response's name runs to the end of the datagram, so a cut or
        // extended response still decodes; only the inquiry frame takes
        // the whole battery. Responses are mutated below.
        let corpus = vec![InquiryMessage::Inquiry.encode()];
        simnet::check_mutations("inquiry_structured_mutations", &corpus, |m| {
            InquiryMessage::decode(m).map(|msg| msg.encode())
        });
    }

    #[test]
    fn mutated_responses_decode_to_what_they_encode() {
        let frame = InquiryMessage::Response {
            name: "Pocket Camera".to_owned(),
            class: 0x0680,
        }
        .encode();
        simnet::check_cases("inquiry_mutated_responses", 256, |_, rng| {
            let mut flipped = frame.clone();
            let at = rng.gen_range(0..frame.len());
            flipped[at] ^= rng.gen_range(1u8..=255);
            let cut = rng.gen_range(0..=frame.len());
            let random = rng.gen_bytes(cut);
            for input in [&flipped[..], &frame[..cut], &random[..]] {
                if let Some(msg) = InquiryMessage::decode(input) {
                    assert_eq!(msg.encode(), input);
                }
            }
            assert_eq!(InquiryMessage::decode(&frame[..cut.min(4)]), None);
        });
    }

    #[test]
    fn decode_never_panics() {
        simnet::check_cases("inquiry_decode_never_panics", 256, |_, rng| {
            let len = rng.gen_range(0usize..64);
            let bytes = rng.gen_bytes(len);
            let _ = InquiryMessage::decode(&bytes);
        });
    }
}
