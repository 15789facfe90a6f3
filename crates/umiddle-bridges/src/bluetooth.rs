//! The Bluetooth mapper: inquiry + SDP discovery, and BIP/HIDP
//! translators.
//!
//! One generic translator exists per profile ("a generic Bluetooth BIP
//! translator implementation which is parameterized for these different
//! specific types of devices based on different USDL documents" — paper
//! §3.4): the camera and the printer share the BIP machinery, the mouse
//! uses HIDP. Mouse signals are translated into small vector-markup
//! documents at the cost §5.2 measures (23 ms per signal).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use platform_bluetooth::{
    image_pull_request, image_push_packets, HidReport, InquiryMessage, ObexAccumulator,
    ObexGetClient, ObexPacket, Opcode, ReportAccumulator, SdpPdu, INQUIRY_GROUP, PSM_HID, PSM_SDP,
};
use simnet::{
    Addr, Ctx, Datagram, LocalMessage, NodeId, Payload, ProcId, Process, SimDuration, SimTime,
    StreamEvent, StreamId,
};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, ConnectionId, MimeType, RuntimeEvent, Symbol,
    TranslatorId, UMessage,
};
use umiddle_usdl::UsdlLibrary;

use crate::calib;
use crate::mapper::{Entity, MapperCore, MapperStats};

const TIMER_INQUIRY: u64 = 1;

/// Self-echo carrying a translated native signal, delivered once the
/// mapper's modeled translation time has elapsed.
#[derive(Debug, Clone)]
struct PendingEmit {
    translator: TranslatorId,
    port: String,
    msg: UMessage,
    started: simnet::SimTime,
}

/// A mapped Bluetooth service (one SDP record on one device).
#[derive(Debug)]
struct BtService {
    profile: String,
    psm: u16,
    translator: Option<TranslatorId>,
}

#[derive(Debug)]
struct BtDevice {
    name: String,
    last_seen: SimTime,
    seen_at: SimTime,
    sdp_queried: bool,
    services: Vec<BtService>,
}

/// In-flight OBEX operations on BIP devices.
enum ObexOp {
    /// `capture` input: PUT RemoteShutter, then GET the newest image.
    Shutter {
        translator: TranslatorId,
        connection: ConnectionId,
        acc: ObexAccumulator,
        pulling: Option<ObexGetClient>,
        started: SimTime,
    },
    /// Initial or explicit image pull.
    Pull {
        translator: TranslatorId,
        client: ObexGetClient,
    },
    /// `image-in` input on a printer: PUT the image.
    Push {
        translator: TranslatorId,
        connection: ConnectionId,
        packets: Vec<Payload>,
        acc: ObexAccumulator,
    },
}

impl std::fmt::Debug for ObexOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            ObexOp::Shutter { .. } => "shutter",
            ObexOp::Pull { .. } => "pull",
            ObexOp::Push { .. } => "push",
        };
        write!(f, "ObexOp::{kind}")
    }
}

/// The Bluetooth mapper process.
pub struct BluetoothMapper {
    /// Translators keyed by (node, profile).
    core: MapperCore<(NodeId, String)>,
    usdl: UsdlLibrary,
    inquiry_port: u16,
    inquiry_interval: SimDuration,
    devices: HashMap<NodeId, BtDevice>,
    sdp_streams: HashMap<StreamId, NodeId>,
    hid_streams: HashMap<StreamId, (TranslatorId, ReportAccumulator)>,
    obex_ops: HashMap<StreamId, ObexOp>,
}

impl std::fmt::Debug for BluetoothMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BluetoothMapper")
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl BluetoothMapper {
    /// Creates a mapper. `inquiry_port` must be free on the node.
    pub fn new(runtime: ProcId, usdl: UsdlLibrary, inquiry_port: u16) -> BluetoothMapper {
        BluetoothMapper {
            core: MapperCore::new(runtime, "bluetooth", "bt"),
            usdl,
            inquiry_port,
            inquiry_interval: SimDuration::from_secs(10),
            devices: HashMap::new(),
            sdp_streams: HashMap::new(),
            hid_streams: HashMap::new(),
            obex_ops: HashMap::new(),
        }
    }

    /// A mapper with the default inquiry port (5900).
    pub fn with_defaults(runtime: ProcId, usdl: UsdlLibrary) -> BluetoothMapper {
        BluetoothMapper::new(runtime, usdl, 5900)
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    fn send_inquiry(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.multicast(
            self.inquiry_port,
            INQUIRY_GROUP,
            InquiryMessage::Inquiry.encode(),
        );
    }

    fn expire_devices(&mut self, ctx: &mut Ctx<'_>) {
        let deadline = self.inquiry_interval * 3;
        let now = ctx.now();
        let mut dead: Vec<NodeId> = self
            .devices
            .iter()
            .filter(|(_, d)| now.saturating_since(d.last_seen) > deadline)
            .map(|(n, _)| *n)
            .collect();
        // Depart in node order, not the map's per-run hash order.
        dead.sort_unstable();
        for node in dead {
            if let Some(dev) = self.devices.remove(&node) {
                for svc in dev.services {
                    self.core.depart(ctx, &(node, svc.profile), svc.translator);
                }
                ctx.bump("mapper.bt.expired", 1);
            }
        }
    }

    fn handle_sdp_response(&mut self, ctx: &mut Ctx<'_>, node: NodeId, pdu: SdpPdu) {
        let SdpPdu::SearchResponse { records, .. } = pdu else {
            return;
        };
        ctx.busy(platform_bluetooth::calib::SDP_CODEC);
        let Some(dev) = self.devices.get_mut(&node) else {
            return;
        };
        for record in records {
            if dev.services.iter().any(|s| s.profile == record.profile) {
                continue;
            }
            let Some(doc) = self.usdl.get("bluetooth", &record.profile) else {
                ctx.bump("mapper.bt.unknown_profile", 1);
                continue;
            };
            // Figure 10: per-port translator instantiation cost.
            let entity = Entity {
                key: (node, record.profile.clone()),
                name: dev.name.clone(),
                seen_at: dev.seen_at,
            };
            self.core.instantiate(ctx, doc, 0, &record.name, entity);
            dev.services.push(BtService {
                profile: record.profile,
                psm: record.psm,
                translator: None,
            });
        }
    }

    fn service_mut(&mut self, node: NodeId, profile: &str) -> Option<&mut BtService> {
        self.devices
            .get_mut(&node)?
            .services
            .iter_mut()
            .find(|s| s.profile == profile)
    }

    fn emit_image(&mut self, ctx: &mut Ctx<'_>, translator: TranslatorId, data: Vec<u8>) {
        let mime: MimeType = "image/jpeg".parse().expect("static mime");
        ctx.busy(calib::EVENT_TRANSLATION);
        self.core.record_egress(ctx, calib::EVENT_TRANSLATION);
        self.core.stats.borrow_mut().events += 1;
        self.core
            .client
            .output(ctx, translator, "image-out", UMessage::new(mime, data));
    }

    fn handle_runtime_event(&mut self, ctx: &mut Ctx<'_>, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Registered { token, translator } => {
                let Some((node, profile)) = self.core.registered(ctx, token, translator) else {
                    return;
                };
                let psm = {
                    let Some(svc) = self.service_mut(node, &profile) else {
                        return;
                    };
                    svc.translator = Some(translator);
                    svc.psm
                };
                // The mouse pushes reports: open the interrupt channel.
                if profile == "hidp-mouse" {
                    if let Ok(stream) = ctx.connect(Addr::new(node, PSM_HID.max(psm))) {
                        self.hid_streams
                            .insert(stream, (translator, ReportAccumulator::new()));
                    }
                }
                // Cameras announce their newest stored image into the
                // common space at mapping time, so freshly wired sinks
                // have something to show.
                if profile == "bip-camera" {
                    if let Ok(stream) = ctx.connect(Addr::new(node, psm)) {
                        self.obex_ops.insert(
                            stream,
                            ObexOp::Pull {
                                translator,
                                client: ObexGetClient::new(),
                            },
                        );
                    }
                }
            }
            RuntimeEvent::Input {
                translator,
                port,
                msg,
                connection,
            } => self.handle_input(ctx, translator, port, msg, connection),
            _ => {}
        }
    }

    /// Translates one delivered input into the matching OBEX operation —
    /// called once per [`RuntimeEvent::Input`].
    fn handle_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: Symbol,
        msg: UMessage,
        connection: ConnectionId,
    ) {
        let Some((node, profile)) = self.core.key(translator).cloned() else {
            return;
        };
        let Some(svc) = self
            .devices
            .get(&node)
            .and_then(|d| d.services.iter().find(|s| s.profile == profile))
        else {
            return;
        };
        ctx.busy(calib::CONTROL_TRANSLATION);
        self.core
            .record_hop(ctx, connection, port, calib::CONTROL_TRANSLATION);
        match (profile.as_str(), port.as_str()) {
            ("bip-camera", "capture") => {
                if let Ok(stream) = ctx.connect(Addr::new(node, svc.psm)) {
                    self.obex_ops.insert(
                        stream,
                        ObexOp::Shutter {
                            translator,
                            connection,
                            acc: ObexAccumulator::new(),
                            pulling: None,
                            started: ctx.now(),
                        },
                    );
                }
            }
            ("bip-printer", "image-in") => {
                let packets: Vec<Payload> = image_push_packets("photo.jpg", msg.body_payload())
                    .iter()
                    .map(ObexPacket::encode)
                    .collect();
                if let Ok(stream) = ctx.connect(Addr::new(node, svc.psm)) {
                    self.obex_ops.insert(
                        stream,
                        ObexOp::Push {
                            translator,
                            connection,
                            packets,
                            acc: ObexAccumulator::new(),
                        },
                    );
                }
            }
            _ => {
                ack_input_done(ctx, self.core.runtime(), connection, translator);
            }
        }
    }

    fn handle_hid_data(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, data: &[u8]) {
        let Some((translator, acc)) = self.hid_streams.get_mut(&stream) else {
            return;
        };
        let translator = *translator;
        acc.push(data);
        let mut reports = Vec::new();
        while let Some(r) = acc.next() {
            reports.push(r);
        }
        for report in reports {
            // §5.2: translating the mouse signal to a vector-markup
            // document costs ~23 ms; the emission is deferred through a
            // self-echo so that time actually elapses first.
            ctx.busy(calib::HID_TRANSLATION);
            self.core.record_egress(ctx, calib::HID_TRANSLATION);
            let (port, msg) = match report {
                HidReport::Buttons(mask) => {
                    let state = if mask != 0 { "press" } else { "release" };
                    ("clicks".to_owned(), UMessage::text(state))
                }
                HidReport::Motion { dx, dy } => {
                    let vml = format!("<vml><stroke dx=\"{dx}\" dy=\"{dy}\"/></vml>");
                    let mime: MimeType = "application/vml".parse().expect("static mime");
                    ("pointer".to_owned(), UMessage::new(mime, vml.into_bytes()))
                }
            };
            let me = ctx.me();
            ctx.send_local(
                me,
                PendingEmit {
                    translator,
                    port,
                    msg,
                    started: ctx.now(),
                },
            );
        }
    }

    fn handle_obex_data(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, data: &[u8]) {
        let Some(op) = self.obex_ops.get_mut(&stream) else {
            return;
        };
        match op {
            ObexOp::Shutter {
                translator,
                connection,
                acc,
                pulling,
                started,
            } => {
                let translator = *translator;
                let connection = *connection;
                let started = *started;
                if let Some(client) = pulling {
                    match client.push(data) {
                        Ok(Some((_, image))) => {
                            self.obex_ops.remove(&stream);
                            ctx.stream_close(stream);
                            self.emit_image(ctx, translator, image);
                            let mut stats = self.core.stats.borrow_mut();
                            stats.actions += 1;
                            stats
                                .action_latencies
                                .push(ctx.now().saturating_since(started));
                            drop(stats);
                            ack_input_done(ctx, self.core.runtime(), connection, translator);
                        }
                        Ok(None) => {}
                        Err(_) => {
                            self.obex_ops.remove(&stream);
                            ctx.stream_close(stream);
                            ack_input_done(ctx, self.core.runtime(), connection, translator);
                        }
                    }
                    return;
                }
                acc.push(data);
                match acc.next() {
                    Ok(Some(pkt)) if pkt.opcode == Opcode::Success => {
                        // Shutter done; now pull the new image (named by
                        // nothing: the camera returns its first image, so
                        // ask for the newest by pulling without a name —
                        // the camera's GET default).
                        *pulling = Some(ObexGetClient::new());
                        let _ = ctx.stream_send(stream, image_pull_request(None));
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(_) => {
                        self.obex_ops.remove(&stream);
                        ctx.stream_close(stream);
                        ack_input_done(ctx, self.core.runtime(), connection, translator);
                    }
                }
            }
            ObexOp::Pull { translator, client } => {
                let translator = *translator;
                match client.push(data) {
                    Ok(Some((_, image))) => {
                        self.obex_ops.remove(&stream);
                        ctx.stream_close(stream);
                        self.emit_image(ctx, translator, image);
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.obex_ops.remove(&stream);
                        ctx.stream_close(stream);
                    }
                }
            }
            ObexOp::Push {
                translator,
                connection,
                acc,
                ..
            } => {
                let translator = *translator;
                let connection = *connection;
                acc.push(data);
                loop {
                    match acc.next() {
                        Ok(Some(pkt)) => match pkt.opcode {
                            Opcode::Success => {
                                self.obex_ops.remove(&stream);
                                ctx.stream_close(stream);
                                self.core.stats.borrow_mut().actions += 1;
                                ack_input_done(ctx, self.core.runtime(), connection, translator);
                                return;
                            }
                            Opcode::Continue => {}
                            _ => {
                                self.obex_ops.remove(&stream);
                                ctx.stream_close(stream);
                                ack_input_done(ctx, self.core.runtime(), connection, translator);
                                return;
                            }
                        },
                        Ok(None) => return,
                        Err(_) => {
                            self.obex_ops.remove(&stream);
                            ctx.stream_close(stream);
                            ack_input_done(ctx, self.core.runtime(), connection, translator);
                            return;
                        }
                    }
                }
            }
        }
    }
}

impl Process for BluetoothMapper {
    fn name(&self) -> &str {
        "bluetooth-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        ctx.bind(self.inquiry_port).expect("inquiry port free");
        let _ = ctx.join_group(INQUIRY_GROUP);
        self.send_inquiry(ctx);
        let interval = self.inquiry_interval;
        ctx.set_timer(interval, TIMER_INQUIRY);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_INQUIRY {
            self.expire_devices(ctx);
            self.send_inquiry(ctx);
            let interval = self.inquiry_interval;
            ctx.set_timer(interval, TIMER_INQUIRY);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Some(InquiryMessage::Response { name, .. }) = InquiryMessage::decode(&dgram.data)
        else {
            return;
        };
        let node = dgram.src.node;
        let now = ctx.now();
        let new = !self.devices.contains_key(&node);
        let dev = self.devices.entry(node).or_insert_with(|| BtDevice {
            name: name.clone(),
            last_seen: now,
            seen_at: now,
            sdp_queried: false,
            services: Vec::new(),
        });
        dev.last_seen = now;
        if new || !dev.sdp_queried {
            dev.sdp_queried = true;
            // Paging latency for the SDP connection.
            ctx.busy(platform_bluetooth::calib::PAGE_LATENCY);
            if let Ok(stream) = ctx.connect(Addr::new(node, PSM_SDP)) {
                self.sdp_streams.insert(stream, node);
            }
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if let Some(node) = self.sdp_streams.get(&stream).copied() {
            match event {
                StreamEvent::Connected => {
                    let req = SdpPdu::SearchRequest {
                        transaction: 1,
                        pattern: String::new(),
                    };
                    ctx.busy(platform_bluetooth::calib::SDP_CODEC);
                    let _ = ctx.stream_send(stream, req.encode());
                }
                StreamEvent::Data(data) => {
                    if let Some(pdu) = SdpPdu::decode(&data) {
                        self.handle_sdp_response(ctx, node, pdu);
                    }
                    self.sdp_streams.remove(&stream);
                }
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    self.sdp_streams.remove(&stream);
                }
                _ => {}
            }
            return;
        }
        if self.hid_streams.contains_key(&stream) {
            match event {
                StreamEvent::Data(data) => self.handle_hid_data(ctx, stream, &data),
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    self.hid_streams.remove(&stream);
                }
                _ => {}
            }
            return;
        }
        if self.obex_ops.contains_key(&stream) {
            match event {
                StreamEvent::Connected => {
                    // Kick off the operation. Each packet goes out as its
                    // own shared buffer — no concatenation copy.
                    let to_send: Vec<Payload> = match self.obex_ops.get_mut(&stream) {
                        Some(ObexOp::Shutter { .. }) => {
                            // PUT RemoteShutter (final, no body).
                            vec![ObexPacket::new(Opcode::PutFinal)
                                .with_header(platform_bluetooth::Header::Name(
                                    "RemoteShutter".to_owned(),
                                ))
                                .with_header(platform_bluetooth::Header::EndOfBody(Payload::new()))
                                .encode()]
                        }
                        Some(ObexOp::Pull { .. }) => vec![image_pull_request(None)],
                        Some(ObexOp::Push { packets, .. }) => std::mem::take(packets),
                        None => Vec::new(),
                    };
                    for bytes in to_send {
                        let _ = ctx.stream_send(stream, bytes);
                    }
                }
                StreamEvent::Data(data) => self.handle_obex_data(ctx, stream, &data),
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    if let Some(op) = self.obex_ops.remove(&stream) {
                        match op {
                            ObexOp::Shutter {
                                translator,
                                connection,
                                ..
                            }
                            | ObexOp::Push {
                                translator,
                                connection,
                                ..
                            } => {
                                ack_input_done(ctx, self.core.runtime(), connection, translator);
                            }
                            ObexOp::Pull { .. } => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if handle_input_done_echo(ctx, &msg) {
            return;
        }
        let msg = match msg.downcast::<PendingEmit>() {
            Ok(pending) => {
                let mut stats = self.core.stats.borrow_mut();
                stats.events += 1;
                stats
                    .translation_latencies
                    .push(ctx.now().saturating_since(pending.started));
                drop(stats);
                ctx.bump(simnet::metric_id!("mapper.bt.hid_translated"), 1);
                self.core
                    .client
                    .output(ctx, pending.translator, pending.port, pending.msg);
                return;
            }
            Err(original) => original,
        };
        if let Ok(event) = msg.downcast::<RuntimeEvent>() {
            self.handle_runtime_event(ctx, *event);
        }
    }
}
