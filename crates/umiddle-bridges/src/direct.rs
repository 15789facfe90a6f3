//! The **direct-translation baseline** (the paper's design 1-a).
//!
//! For the E4 ablation we implement what the paper argues against: a
//! translator hardwired to one *pair* of device types — here, the
//! Bluetooth BIP camera and the UPnP MediaRenderer TV. It speaks both
//! native protocols itself with no intermediary representation. The code
//! demonstrates the scaling problem concretely: every new pair needs
//! another such bridge, n(n−1) in total, versus one mediated translator
//! per type.

use std::collections::HashMap;

use platform_bluetooth::{
    image_pull_request, InquiryMessage, ObexGetClient, SdpPdu, INQUIRY_GROUP, PSM_SDP,
};
use platform_upnp::{ControlPoint, CpEvent, SoapCall};
use simnet::{Addr, Ctx, Datagram, NodeId, Process, SimDuration, StreamEvent, StreamId};

/// Counts translators required under each translation model for `n`
/// device types (the paper's §2.2.1 argument, as running code for E4).
pub fn translators_required(n: usize) -> TranslatorCount {
    TranslatorCount {
        device_types: n,
        direct: n.saturating_mul(n.saturating_sub(1)),
        mediated: n,
    }
}

/// Result of [`translators_required`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatorCount {
    /// Number of device types considered.
    pub device_types: usize,
    /// Translators needed with direct translation: n(n−1) directed pairs.
    pub direct: usize,
    /// Translators needed with mediated translation: one per type.
    pub mediated: usize,
}

const TIMER_INQUIRY: u64 = 1;
const TIMER_PULL: u64 = 2;

/// A hardwired Bluetooth-BIP-camera → UPnP-MediaRenderer bridge with no
/// intermediary semantic space.
///
/// It periodically pulls the camera's newest image over OBEX and renders
/// it on the TV via SOAP. Exactly one device pair, fixed at compile time
/// — the point of the baseline.
pub struct DirectBipToRendererBridge {
    inquiry_port: u16,
    pull_interval: SimDuration,
    camera: Option<Addr>,
    renderer: Option<Addr>,
    sdp_streams: HashMap<StreamId, NodeId>,
    pulls: HashMap<StreamId, ObexGetClient>,
    cp: ControlPoint,
    /// Images delivered to the TV.
    pub delivered: u64,
    next_call: u64,
}

impl std::fmt::Debug for DirectBipToRendererBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectBipToRendererBridge")
            .field("camera", &self.camera)
            .field("renderer", &self.renderer)
            .field("delivered", &self.delivered)
            .finish_non_exhaustive()
    }
}

impl DirectBipToRendererBridge {
    /// Creates the bridge. `inquiry_port` must be free on its node, which
    /// must be attached to both the piconet and the UPnP segment.
    pub fn new(inquiry_port: u16, pull_interval: SimDuration) -> DirectBipToRendererBridge {
        DirectBipToRendererBridge {
            inquiry_port,
            pull_interval,
            camera: None,
            renderer: None,
            sdp_streams: HashMap::new(),
            pulls: HashMap::new(),
            cp: ControlPoint::new(),
            delivered: 0,
            next_call: 1,
        }
    }

    fn try_pull(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(camera), Some(_)) = (self.camera, self.renderer) else {
            return;
        };
        if let Ok(stream) = ctx.connect(camera) {
            self.pulls.insert(stream, ObexGetClient::new());
        }
    }

    fn render(&mut self, ctx: &mut Ctx<'_>, image: Vec<u8>) {
        let Some(renderer) = self.renderer else {
            return;
        };
        // Direct translation: BIP bytes straight into a SOAP argument.
        let call = SoapCall::new("AVTransport", "RenderMedia")
            .with_arg("Media", format!("[{} bytes]", image.len()));
        let call_id = self.next_call;
        self.next_call += 1;
        let _ = self.cp.invoke(ctx, renderer, &call, call_id);
        self.delivered += 1;
        ctx.bump("direct_bridge.delivered", 1);
    }
}

impl Process for DirectBipToRendererBridge {
    fn name(&self) -> &str {
        "direct-bip-renderer-bridge"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.inquiry_port).expect("bridge port free");
        let _ = ctx.join_group(INQUIRY_GROUP);
        let _ = ctx.join_group(platform_upnp::SSDP_GROUP);
        // Discover both sides with their native discovery protocols.
        let _ = ctx.multicast(
            self.inquiry_port,
            INQUIRY_GROUP,
            InquiryMessage::Inquiry.encode(),
        );
        self.cp.search(ctx, "ssdp:all", self.inquiry_port);
        let interval = self.pull_interval;
        ctx.set_timer(SimDuration::from_secs(10), TIMER_INQUIRY);
        ctx.set_timer(interval, TIMER_PULL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TIMER_INQUIRY => {
                if self.camera.is_none() {
                    let _ = ctx.multicast(
                        self.inquiry_port,
                        INQUIRY_GROUP,
                        InquiryMessage::Inquiry.encode(),
                    );
                }
                if self.renderer.is_none() {
                    self.cp.search(ctx, "ssdp:all", self.inquiry_port);
                }
                ctx.set_timer(SimDuration::from_secs(10), TIMER_INQUIRY);
            }
            TIMER_PULL => {
                self.try_pull(ctx);
                let interval = self.pull_interval;
                ctx.set_timer(interval, TIMER_PULL);
            }
            _ => {}
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Bluetooth inquiry responses.
        if let Some(InquiryMessage::Response { .. }) = InquiryMessage::decode(&dgram.data) {
            if self.camera.is_none() {
                let node = dgram.src.node;
                if let Ok(stream) = ctx.connect(Addr::new(node, PSM_SDP)) {
                    self.sdp_streams.insert(stream, node);
                }
            }
            return;
        }
        // SSDP traffic.
        if let Some(CpEvent::DeviceSeen {
            device_type,
            location,
            ..
        }) = self.cp.handle_ssdp(ctx, &dgram)
        {
            if device_type.contains("MediaRenderer") && self.renderer.is_none() {
                self.renderer = Some(location);
            }
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if let Some(node) = self.sdp_streams.get(&stream).copied() {
            match event {
                StreamEvent::Connected => {
                    let req = SdpPdu::SearchRequest {
                        transaction: 1,
                        pattern: "bip-camera".to_owned(),
                    };
                    let _ = ctx.stream_send(stream, req.encode());
                }
                StreamEvent::Data(data) => {
                    if let Some(SdpPdu::SearchResponse { records, .. }) = SdpPdu::decode(&data) {
                        if let Some(r) = records.first() {
                            self.camera = Some(Addr::new(node, r.psm));
                        }
                    }
                    self.sdp_streams.remove(&stream);
                    ctx.stream_close(stream);
                }
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    self.sdp_streams.remove(&stream);
                }
                _ => {}
            }
            return;
        }
        if self.pulls.contains_key(&stream) {
            match event {
                StreamEvent::Connected => {
                    let _ = ctx.stream_send(stream, image_pull_request(None));
                }
                StreamEvent::Data(data) => {
                    let done = match self.pulls.get_mut(&stream) {
                        Some(client) => client.push(&data),
                        None => return,
                    };
                    match done {
                        Ok(Some((_, image))) => {
                            self.pulls.remove(&stream);
                            ctx.stream_close(stream);
                            self.render(ctx, image);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            self.pulls.remove(&stream);
                            ctx.stream_close(stream);
                        }
                    }
                }
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    self.pulls.remove(&stream);
                }
                _ => {}
            }
            return;
        }
        // SOAP responses for RenderMedia.
        let _ = self.cp.handle_stream(ctx, stream, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translator_counts_match_the_papers_argument() {
        let c = translators_required(2);
        assert_eq!(c.direct, 2);
        assert_eq!(c.mediated, 2);
        let c = translators_required(10);
        assert_eq!(c.direct, 90);
        assert_eq!(c.mediated, 10);
        // The crossover the paper cares about: direct explodes.
        for n in 3..40 {
            let c = translators_required(n);
            assert!(c.direct > c.mediated);
        }
        assert_eq!(translators_required(0).direct, 0);
    }
}
