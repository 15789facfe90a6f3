//! The MediaBroker mapper: channel discovery + source/sink translators.
//!
//! The mapper keeps a control stream to the broker, polls the channel
//! roster, and registers a *source* translator (with a `media-out`
//! output port) for each broker channel; messages the broker forwards on
//! a consumed channel are emitted into the common space. It can also be
//! configured with *sink* channels: it registers a producer translator
//! (with a `media-in` input port) whose inputs are produced into the
//! broker — the return path of the paper's RMI-MB bridged benchmark.

use std::cell::RefCell;
use std::rc::Rc;

use platform_mediabroker::{MbAccumulator, MbFrame};
use simnet::{
    Addr, Ctx, IntMap, LocalMessage, ProcId, Process, SimDuration, StreamEvent, StreamId,
};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, ConnectionId, MimeType, RuntimeEvent, Symbol,
    TranslatorId, UMessage,
};
use umiddle_usdl::UsdlLibrary;

use crate::calib;
use crate::mapper::{Entity, MapperCore, MapperStats};

const TIMER_POLL: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Consume from the broker, emit into uMiddle.
    Source,
    /// Accept uMiddle input, produce into the broker.
    Sink,
}

#[derive(Debug)]
struct Bridged {
    channel: String,
    role: Role,
    translator: Option<TranslatorId>,
    stream: Option<StreamId>,
    attached: bool,
}

/// The MediaBroker mapper process.
pub struct MediaBrokerMapper {
    /// Translators keyed by bridged index.
    core: MapperCore<usize>,
    usdl: UsdlLibrary,
    broker: Addr,
    /// Channels to produce into (sink translators), fixed at config time.
    sink_channels: Vec<String>,
    poll_interval: SimDuration,
    control: Option<StreamId>,
    control_acc: MbAccumulator,
    bridged: Vec<Bridged>,
    /// Data streams: stream → bridged index and the stream's framer.
    data_streams: IntMap<StreamId, (usize, MbAccumulator)>,
    /// The type and port of every message a source translator emits,
    /// built once.
    mime: MimeType,
    media_out: Symbol,
}

impl std::fmt::Debug for MediaBrokerMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediaBrokerMapper")
            .field("bridged", &self.bridged.len())
            .finish_non_exhaustive()
    }
}

impl MediaBrokerMapper {
    /// Creates a mapper; `sink_channels` are produced into the broker on
    /// behalf of uMiddle senders.
    pub fn new(
        runtime: ProcId,
        usdl: UsdlLibrary,
        broker: Addr,
        sink_channels: Vec<String>,
    ) -> MediaBrokerMapper {
        MediaBrokerMapper {
            core: MapperCore::new(runtime, "mediabroker", "mb"),
            usdl,
            broker,
            sink_channels,
            poll_interval: SimDuration::from_secs(5),
            control: None,
            control_acc: MbAccumulator::new(),
            bridged: Vec::new(),
            data_streams: IntMap::default(),
            mime: "application/octet-stream".parse().expect("static"),
            media_out: Symbol::new("media-out"),
        }
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    fn register_bridged(&mut self, ctx: &mut Ctx<'_>, channel: &str, role: Role) {
        if self
            .bridged
            .iter()
            .any(|b| b.channel == channel && b.role == role)
        {
            return;
        }
        let device_type = match role {
            Role::Source => "mb-source",
            Role::Sink => "mb-sink",
        };
        let Some(doc) = self.usdl.get("mediabroker", device_type) else {
            ctx.bump("mapper.mb.missing_usdl", 1);
            return;
        };
        let name = match role {
            Role::Source => format!("MB channel {channel}"),
            Role::Sink => format!("MB sink {channel}"),
        };
        let entity = Entity {
            key: self.bridged.len(),
            name: channel.to_owned(),
            seen_at: ctx.now(),
        };
        self.core.instantiate(ctx, doc, 0, &name, entity);
        self.bridged.push(Bridged {
            channel: channel.to_owned(),
            role,
            translator: None,
            stream: None,
            attached: false,
        });
    }

    /// Opens the data stream for a bridged channel once its translator
    /// exists.
    fn open_data_stream(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(b) = self.bridged.get_mut(idx) else {
            return;
        };
        if b.stream.is_some() {
            return;
        }
        if let Ok(stream) = ctx.connect(self.broker) {
            b.stream = Some(stream);
            self.data_streams
                .insert(stream, (idx, MbAccumulator::new()));
        }
    }

    fn handle_control_frame(&mut self, ctx: &mut Ctx<'_>, frame: MbFrame) {
        if let MbFrame::Channels(entries) = frame {
            for (name, _ty, _consumers) in entries {
                // Don't re-bridge our own sink channels as sources.
                if !self.sink_channels.contains(&name) {
                    self.register_bridged(ctx, &name, Role::Source);
                }
            }
        }
    }

    fn handle_data_frame(&mut self, ctx: &mut Ctx<'_>, idx: usize, frame: MbFrame) {
        match frame {
            MbFrame::Ack => {
                if let Some(b) = self.bridged.get_mut(idx) {
                    b.attached = true;
                }
            }
            MbFrame::Nack { reason } => {
                ctx.trace(format!("mb attach failed: {reason}"));
                ctx.bump("mapper.mb.attach_failed", 1);
            }
            MbFrame::Data { payload } => {
                let Some(b) = self.bridged.get(idx) else {
                    return;
                };
                if b.role != Role::Source {
                    return;
                }
                let Some(translator) = b.translator else {
                    return;
                };
                ctx.busy(calib::MB_FRAME_TRANSLATION);
                self.core.record_egress(ctx, calib::MB_FRAME_TRANSLATION);
                self.core.stats.borrow_mut().events += 1;
                self.core.client.output(
                    ctx,
                    translator,
                    self.media_out,
                    UMessage::new(self.mime.clone(), payload),
                );
            }
            _ => {}
        }
    }

    fn handle_runtime_event(&mut self, ctx: &mut Ctx<'_>, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Registered { token, translator } => {
                let Some(idx) = self.core.registered(ctx, token, translator) else {
                    return;
                };
                if let Some(b) = self.bridged.get_mut(idx) {
                    b.translator = Some(translator);
                }
                self.open_data_stream(ctx, idx);
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

    /// Translates one delivered input into a MediaBroker data frame —
    /// called once per [`RuntimeEvent::Input`].
    fn handle_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: Symbol,
        msg: UMessage,
        connection: ConnectionId,
    ) {
        let Some(&idx) = self.core.key(translator) else {
            return;
        };
        let Some(b) = self.bridged.get(idx) else {
            return;
        };
        if b.role != Role::Sink || port != "media-in" {
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        }
        ctx.busy(calib::MB_FRAME_TRANSLATION);
        self.core
            .record_hop(ctx, connection, port, calib::MB_FRAME_TRANSLATION);
        if let (Some(stream), true) = (b.stream, b.attached) {
            let frame = MbFrame::Data {
                payload: msg.into_body(),
            };
            let _ = ctx.stream_send(stream, frame.encode_framed());
            self.core.stats.borrow_mut().actions += 1;
        }
        ack_input_done(ctx, self.core.runtime(), connection, translator);
    }
}

impl Process for MediaBrokerMapper {
    fn name(&self) -> &str {
        "mediabroker-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        if let Ok(stream) = ctx.connect(self.broker) {
            self.control = Some(stream);
        }
        // Sink translators are configured statically.
        for channel in self.sink_channels.clone() {
            self.register_bridged(ctx, &channel, Role::Sink);
        }
        let interval = self.poll_interval;
        ctx.set_timer(interval, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_POLL {
            if let Some(stream) = self.control {
                let _ = ctx.stream_send(stream, MbFrame::ListChannels.encode_framed());
            }
            let interval = self.poll_interval;
            ctx.set_timer(interval, TIMER_POLL);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if Some(stream) == self.control {
            match event {
                StreamEvent::Connected => {
                    let _ = ctx.stream_send(stream, MbFrame::ListChannels.encode_framed());
                }
                StreamEvent::Data(data) => {
                    self.control_acc.push_payload(data);
                    loop {
                        match self.control_acc.next() {
                            Ok(Some(frame)) => self.handle_control_frame(ctx, frame),
                            Ok(None) => break,
                            Err(_) => {
                                ctx.stream_close(stream);
                                break;
                            }
                        }
                    }
                }
                StreamEvent::Closed | StreamEvent::ConnectFailed => {
                    self.control = None;
                }
                _ => {}
            }
            return;
        }
        let Some(&(idx, _)) = self.data_streams.get(&stream) else {
            return;
        };
        match event {
            StreamEvent::Connected => {
                // Attach according to the role.
                let Some(b) = self.bridged.get(idx) else {
                    return;
                };
                let frame = match b.role {
                    Role::Source => MbFrame::Consume {
                        channel: b.channel.clone(),
                        media_type: "application/octet-stream".to_owned(),
                    },
                    Role::Sink => MbFrame::Produce {
                        channel: b.channel.clone(),
                        media_type: "application/octet-stream".to_owned(),
                    },
                };
                let _ = ctx.stream_send(stream, frame.encode_framed());
            }
            StreamEvent::Data(data) => {
                let Some((_, acc)) = self.data_streams.get_mut(&stream) else {
                    return;
                };
                acc.push_payload(data);
                loop {
                    let frame = match self.data_streams.get_mut(&stream).map(|(_, a)| a.next()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            ctx.stream_close(stream);
                            break;
                        }
                    };
                    self.handle_data_frame(ctx, idx, frame);
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                self.data_streams.remove(&stream);
                if let Some(b) = self.bridged.get_mut(idx) {
                    b.stream = None;
                    b.attached = false;
                }
            }
            _ => {}
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if handle_input_done_echo(ctx, &msg) {
            return;
        }
        if let Ok(event) = msg.downcast::<RuntimeEvent>() {
            self.handle_runtime_event(ctx, *event);
        }
    }
}
