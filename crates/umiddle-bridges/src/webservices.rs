//! The web-services mapper: description probing and RPC translators.
//!
//! Web services have no multicast discovery; the mapper is configured
//! with endpoint addresses to probe. Each description's `kind` selects a
//! USDL document. An endpoint that has not answered a describe is
//! described again on the poll timer, one describe in flight at a time,
//! so a service that starts after the mapper is still mapped. Inputs
//! invoke the bound operation; output ports with polling bindings
//! (`tail`, `current`) are refreshed on a timer and emitted when their
//! value changes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use platform_webservices::{MethodCall, MethodResponse, WsClient, WsEvent, WsRequest};
use simnet::{Addr, Ctx, LocalMessage, ProcId, Process, SimDuration, StreamEvent, StreamId};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, ConnectionId, RuntimeEvent, Symbol, TranslatorId,
    UMessage,
};
use umiddle_usdl::{UsdlDocument, UsdlLibrary};

use crate::calib;
use crate::mapper::{Entity, MapperCore, MapperStats};

const TIMER_POLL: u64 = 1;

/// Where an endpoint's description fetch stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Describe {
    /// Not answered and none in flight: the next poll describes it.
    Due,
    InFlight,
    /// A description arrived (its kind known or not).
    Answered,
}

#[derive(Debug)]
struct WsService {
    location: Addr,
    describe: Describe,
    doc: Option<UsdlDocument>,
    translator: Option<TranslatorId>,
    /// Last emitted value per polled output port (dedup).
    last_values: HashMap<Symbol, String>,
}

#[derive(Debug)]
enum WsCall {
    Input {
        translator: TranslatorId,
        connection: ConnectionId,
    },
    Poll {
        service_idx: usize,
        port: Symbol,
    },
}

/// The web-services mapper process.
pub struct WsMapper {
    /// Translators keyed by service index.
    core: MapperCore<usize>,
    usdl: UsdlLibrary,
    ws: WsClient,
    endpoints: Vec<Addr>,
    poll_interval: SimDuration,
    services: Vec<WsService>,
    calls: HashMap<u64, WsCall>,
    next_call: u64,
}

impl std::fmt::Debug for WsMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WsMapper")
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl WsMapper {
    /// Creates a mapper probing the given endpoints.
    pub fn new(runtime: ProcId, usdl: UsdlLibrary, endpoints: Vec<Addr>) -> WsMapper {
        WsMapper {
            core: MapperCore::new(runtime, "webservices", "ws"),
            usdl,
            ws: WsClient::new(),
            endpoints,
            poll_interval: SimDuration::from_secs(10),
            services: Vec::new(),
            calls: HashMap::new(),
            next_call: 1,
        }
    }

    /// Shared statistics handle.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    /// Describes every endpoint that is due, in endpoint order.
    fn describe_due(&mut self, ctx: &mut Ctx<'_>) {
        for svc in &mut self.services {
            // An unreachable endpoint stays due.
            if svc.describe == Describe::Due && self.ws.describe(ctx, svc.location).is_ok() {
                svc.describe = Describe::InFlight;
            }
        }
    }

    fn poll_outputs(&mut self, ctx: &mut Ctx<'_>) {
        for (idx, svc) in self.services.iter().enumerate() {
            let (Some(doc), Some(_)) = (&svc.doc, svc.translator) else {
                continue;
            };
            let outputs = doc
                .ports()
                .iter()
                .filter(|p| p.spec.direction == umiddle_core::Direction::Output);
            for port in outputs {
                let Some(operation) = port.bindings.iter().find_map(|b| b.get("operation")) else {
                    continue;
                };
                let call_id = self.next_call;
                self.next_call += 1;
                self.calls.insert(
                    call_id,
                    WsCall::Poll {
                        service_idx: idx,
                        port: Symbol::new(&port.spec.name),
                    },
                );
                let call = MethodCall::new(operation, vec![]);
                if self.ws.call(ctx, svc.location, &call, call_id).is_err() {
                    self.calls.remove(&call_id);
                }
            }
        }
    }

    fn handle_ws_event(&mut self, ctx: &mut Ctx<'_>, event: WsEvent) {
        match event {
            WsEvent::Description { location, desc } => {
                let Some(idx) = self
                    .services
                    .iter()
                    .position(|s| s.location == location && s.describe == Describe::InFlight)
                else {
                    return;
                };
                self.services[idx].describe = Describe::Answered;
                let Some(doc) = self.usdl.get("webservices", &desc.kind) else {
                    ctx.bump("mapper.ws.unknown_kind", 1);
                    return;
                };
                self.services[idx].doc = Some(doc.clone());
                let entity = Entity {
                    key: idx,
                    name: format!("ws@{location}"),
                    seen_at: ctx.now(),
                };
                self.core.instantiate(ctx, doc, 0, &desc.name, entity);
            }
            WsEvent::CallResult { call_id, response } => match self.calls.remove(&call_id) {
                Some(WsCall::Input {
                    translator,
                    connection,
                }) => {
                    self.core.stats.borrow_mut().actions += 1;
                    ack_input_done(ctx, self.core.runtime(), connection, translator);
                }
                Some(WsCall::Poll { service_idx, port }) => {
                    let MethodResponse::Value(value) = response else {
                        return;
                    };
                    let Some(svc) = self.services.get_mut(service_idx) else {
                        return;
                    };
                    let Some(translator) = svc.translator else {
                        return;
                    };
                    if svc.last_values.get(&port) == Some(&value) || value.is_empty() {
                        return;
                    }
                    svc.last_values.insert(port, value.clone());
                    ctx.busy(calib::EVENT_TRANSLATION);
                    self.core.record_egress(ctx, calib::EVENT_TRANSLATION);
                    self.core.stats.borrow_mut().events += 1;
                    self.core
                        .client
                        .output(ctx, translator, port, UMessage::text(value));
                }
                None => {}
            },
            WsEvent::Failed(WsRequest::Describe { location }) => {
                for svc in &mut self.services {
                    if svc.location == location && svc.describe == Describe::InFlight {
                        svc.describe = Describe::Due;
                    }
                }
            }
            WsEvent::Failed(WsRequest::Call { call_id }) => {
                if let Some(WsCall::Input {
                    translator,
                    connection,
                }) = self.calls.remove(&call_id)
                {
                    ack_input_done(ctx, self.core.runtime(), connection, translator);
                }
            }
        }
    }

    fn handle_runtime_event(&mut self, ctx: &mut Ctx<'_>, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Registered { token, translator } => {
                let Some(idx) = self.core.registered(ctx, token, translator) else {
                    return;
                };
                if let Some(svc) = self.services.get_mut(idx) {
                    svc.translator = Some(translator);
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

    /// Translates one delivered input into an XML-RPC method call —
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
        let Some(svc) = self.services.get(idx) else {
            return;
        };
        let Some(doc) = svc.doc.as_ref() else { return };
        let Some(usdl_port) = doc.port(&port) else {
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        };
        let Some(operation) = usdl_port.bindings.iter().find_map(|b| b.get("operation")) else {
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        };
        let param = msg.body_text().unwrap_or_default().to_owned();
        let call = MethodCall::new(operation, vec![param]);
        let location = svc.location;
        ctx.busy(calib::CONTROL_TRANSLATION);
        self.core
            .record_hop(ctx, connection, port, calib::CONTROL_TRANSLATION);
        let call_id = self.next_call;
        self.next_call += 1;
        self.calls.insert(
            call_id,
            WsCall::Input {
                translator,
                connection,
            },
        );
        if let Err(request) = self.ws.call(ctx, location, &call, call_id) {
            self.handle_ws_event(ctx, WsEvent::Failed(request));
        }
    }
}

impl Process for WsMapper {
    fn name(&self) -> &str {
        "ws-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        self.services = self
            .endpoints
            .iter()
            .map(|&location| WsService {
                location,
                describe: Describe::Due,
                doc: None,
                translator: None,
                last_values: HashMap::new(),
            })
            .collect();
        self.describe_due(ctx);
        let interval = self.poll_interval;
        ctx.set_timer(interval, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_POLL {
            self.describe_due(ctx);
            self.poll_outputs(ctx);
            let interval = self.poll_interval;
            ctx.set_timer(interval, TIMER_POLL);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        let events = self.ws.handle_stream(ctx, stream, event);
        for ev in events {
            self.handle_ws_event(ctx, ev);
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
