//! The Java RMI mapper: registry polling + request/response translators.
//!
//! Discovery on RMI is registry lookup: the mapper polls the registry for
//! the object names it is configured to bridge, and registers a
//! translator per bound object. An `Input` on the translator's `request`
//! port becomes a remote `echo` call (marshaled Java-style); the return
//! value is emitted on the `response` port. This is the slow endpoint of
//! the paper's Figure 11.

use std::cell::RefCell;
use std::rc::Rc;

use platform_rmi::{JavaValue, RmiClient, RmiClientEvent};
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

#[derive(Debug)]
struct RmiObject {
    name: String,
    addr: Option<Addr>,
}

/// The RMI mapper process.
pub struct RmiMapper {
    /// Translators keyed by object index.
    core: MapperCore<usize>,
    usdl: UsdlLibrary,
    registry: Addr,
    object_names: Vec<String>,
    poll_interval: SimDuration,
    rmi: RmiClient,
    objects: Vec<RmiObject>,
    /// rmi call id → purpose.
    calls: IntMap<u64, RmiCall>,
    next_call: u64,
    /// Completed RMI operations of one stream event, reused per event.
    events: Vec<RmiClientEvent>,
    /// The type and port of every echoed response, built once.
    mime: MimeType,
    response: Symbol,
}

#[derive(Debug)]
enum RmiCall {
    Lookup {
        object_idx: usize,
    },
    Invoke {
        translator: TranslatorId,
        connection: ConnectionId,
    },
}

impl std::fmt::Debug for RmiMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiMapper")
            .field("objects", &self.objects.len())
            .finish_non_exhaustive()
    }
}

impl RmiMapper {
    /// Creates a mapper bridging the named remote objects.
    pub fn new(
        runtime: ProcId,
        usdl: UsdlLibrary,
        registry: Addr,
        object_names: Vec<String>,
    ) -> RmiMapper {
        RmiMapper {
            core: MapperCore::new(runtime, "rmi", "rmi"),
            usdl,
            registry,
            object_names,
            poll_interval: SimDuration::from_secs(5),
            rmi: RmiClient::new(),
            objects: Vec::new(),
            calls: IntMap::default(),
            next_call: 1,
            events: Vec::new(),
            mime: "application/octet-stream".parse().expect("static"),
            response: Symbol::new("response"),
        }
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, obj) in self.objects.iter().enumerate() {
            if obj.addr.is_none() {
                let call_id = self.next_call;
                self.next_call += 1;
                self.calls
                    .insert(call_id, RmiCall::Lookup { object_idx: idx });
                self.rmi.lookup(ctx, self.registry, &obj.name, call_id);
            }
        }
    }

    fn handle_rmi_event(&mut self, ctx: &mut Ctx<'_>, event: RmiClientEvent) {
        match event {
            RmiClientEvent::Resolved { call_id, addr } => {
                let Some(RmiCall::Lookup { object_idx }) = self.calls.remove(&call_id) else {
                    return;
                };
                let Some(obj) = self.objects.get_mut(object_idx) else {
                    return;
                };
                if obj.addr.is_some() {
                    return;
                }
                obj.addr = Some(addr);
                let Some(doc) = self.usdl.get("rmi", &obj.name) else {
                    ctx.bump("mapper.rmi.unknown_object", 1);
                    return;
                };
                let name = format!("{} (RMI)", obj.name);
                let entity = Entity {
                    key: object_idx,
                    name: name.clone(),
                    seen_at: ctx.now(),
                };
                self.core.instantiate(ctx, doc, 0, &name, entity);
            }
            RmiClientEvent::Returned { call_id, result } => {
                let Some(RmiCall::Invoke {
                    translator,
                    connection,
                }) = self.calls.remove(&call_id)
                else {
                    return;
                };
                // Emit the echoed value on the response port.
                let body: simnet::Payload = match result {
                    JavaValue::Bytes(b) => b,
                    other => other.to_string().into_bytes().into(),
                };
                ctx.busy(calib::STREAM_TRANSLATION);
                self.core.record_egress(ctx, calib::STREAM_TRANSLATION);
                self.core.stats.borrow_mut().actions += 1;
                self.core.client.output(
                    ctx,
                    translator,
                    self.response,
                    UMessage::new(self.mime.clone(), body),
                );
                ack_input_done(ctx, self.core.runtime(), connection, translator);
            }
            RmiClientEvent::Raised { call_id, .. } => {
                ctx.bump("mapper.rmi.exceptions", 1);
                if let Some(RmiCall::Invoke {
                    translator,
                    connection,
                }) = self.calls.remove(&call_id)
                {
                    ack_input_done(ctx, self.core.runtime(), connection, translator);
                }
            }
            RmiClientEvent::Failed { call_id } => match self.calls.remove(&call_id) {
                Some(RmiCall::Invoke {
                    translator,
                    connection,
                }) => ack_input_done(ctx, self.core.runtime(), connection, translator),
                Some(RmiCall::Lookup { .. }) | None => {}
            },
        }
    }

    fn handle_runtime_event(&mut self, ctx: &mut Ctx<'_>, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Registered { token, translator } => {
                self.core.registered(ctx, token, translator);
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

    /// Translates one delivered input into a remote `echo` invocation —
    /// called once per [`RuntimeEvent::Input`].
    fn handle_input(
        &mut self,
        ctx: &mut Ctx<'_>,
        translator: TranslatorId,
        port: Symbol,
        msg: UMessage,
        connection: ConnectionId,
    ) {
        if port != "request" {
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        }
        let Some(&idx) = self.core.key(translator) else {
            return;
        };
        let Some(obj) = self.objects.get(idx) else {
            return;
        };
        let Some(addr) = obj.addr else {
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        };
        ctx.busy(calib::STREAM_TRANSLATION);
        self.core
            .record_hop(ctx, connection, port, calib::STREAM_TRANSLATION);
        let call_id = self.next_call;
        self.next_call += 1;
        self.calls.insert(
            call_id,
            RmiCall::Invoke {
                translator,
                connection,
            },
        );
        self.rmi.call(
            ctx,
            addr,
            &obj.name,
            "echo",
            &[JavaValue::Bytes(msg.into_body())],
            call_id,
        );
    }
}

impl Process for RmiMapper {
    fn name(&self) -> &str {
        "rmi-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        self.objects = self
            .object_names
            .iter()
            .map(|name| RmiObject {
                name: name.clone(),
                addr: None,
            })
            .collect();
        self.poll(ctx);
        let interval = self.poll_interval;
        ctx.set_timer(interval, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_POLL {
            self.poll(ctx);
            let interval = self.poll_interval;
            ctx.set_timer(interval, TIMER_POLL);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        let mut events = std::mem::take(&mut self.events);
        self.rmi.handle_stream(ctx, stream, event, &mut events);
        for ev in events.drain(..) {
            self.handle_rmi_event(ctx, ev);
        }
        self.events = events;
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
