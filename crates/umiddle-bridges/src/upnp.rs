//! The UPnP mapper: service-level, transport-level and device-level
//! bridging for the UPnP platform.
//!
//! The mapper discovers native devices over SSDP, fetches and parses
//! their descriptions, instantiates generic USDL-parameterized
//! translators (paying the per-port/per-entity costs the paper's
//! Figure 10 measures), registers them with the local uMiddle runtime,
//! subscribes to GENA events for output ports, and proxies traffic both
//! ways: `Input` messages become SOAP actions, GENA property changes
//! become `Output` messages.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use platform_upnp::{ControlPoint, CpEvent, CpRequest, SoapCall, SoapResult};
use simnet::{
    Addr, Ctx, Datagram, DetailArg, LocalMessage, ProcId, Process, SimDuration, SimTime,
    SpanDetail, StreamEvent, StreamId,
};
use umiddle_core::{ack_input_done, ConnectionId, Symbol, TranslatorId, UMessage};
use umiddle_usdl::{UsdlDocument, UsdlLibrary};

use crate::calib;
use crate::mapper::{Entity, Input, MapperCore, MapperStats, Routed};

const TIMER_SEARCH: u64 = 1;
/// Periodic SSDP re-search interval.
const SEARCH_INTERVAL: SimDuration = SimDuration::from_secs(30);

#[derive(Debug)]
struct MappedDevice {
    location: Addr,
    doc: UsdlDocument,
    seen_at: SimTime,
}

/// The UPnP mapper process. Co-locate it with a
/// [`UmiddleRuntime`](umiddle_core::UmiddleRuntime) on a node attached to
/// the UPnP segment.
pub struct UpnpMapper {
    /// Translators keyed by usn, shared with `devices` so that resolving
    /// an input to its device copies no string.
    core: MapperCore<Rc<str>>,
    usdl: UsdlLibrary,
    cp: ControlPoint,
    reply_port: u16,
    gena_port: u16,
    /// usn → device state.
    devices: HashMap<Rc<str>, MappedDevice>,
    /// SOAP call id → (connection, translator, input arrival time).
    pending_calls: HashMap<u64, (ConnectionId, TranslatorId, SimTime, simnet::SpanId)>,
    next_call: u64,
}

impl std::fmt::Debug for UpnpMapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpnpMapper")
            .field("devices", &self.devices.len())
            .finish_non_exhaustive()
    }
}

impl UpnpMapper {
    /// Creates a mapper talking to the given runtime, with USDL documents
    /// from `usdl`. `reply_port`/`gena_port` must be free on the node.
    pub fn new(runtime: ProcId, usdl: UsdlLibrary, reply_port: u16, gena_port: u16) -> UpnpMapper {
        UpnpMapper {
            core: MapperCore::new(runtime, "upnp", "upnp"),
            usdl,
            cp: ControlPoint::new(),
            reply_port,
            gena_port,
            devices: HashMap::new(),
            pending_calls: HashMap::new(),
            next_call: 1,
        }
    }

    /// A mapper with default ports (5800/5801).
    pub fn with_defaults(runtime: ProcId, usdl: UsdlLibrary) -> UpnpMapper {
        UpnpMapper::new(runtime, usdl, 5800, 5801)
    }

    /// Shared statistics handle; clone before adding to the world.
    pub fn stats_handle(&self) -> Rc<RefCell<MapperStats>> {
        Rc::clone(&self.core.stats)
    }

    fn handle_cp_event(&mut self, ctx: &mut Ctx<'_>, event: CpEvent) {
        match event {
            CpEvent::DeviceSeen {
                usn,
                device_type,
                location,
            } => {
                if self.devices.contains_key(usn.as_str()) {
                    return;
                }
                let Some(doc) = self.usdl.get("upnp", &device_type) else {
                    ctx.bump("mapper.upnp.unknown_device_type", 1);
                    return;
                };
                self.devices.insert(
                    usn.into(),
                    MappedDevice {
                        location,
                        doc: doc.clone(),
                        seen_at: ctx.now(),
                    },
                );
                if let Err(request) = self.cp.fetch_description(ctx, location) {
                    self.handle_cp_event(ctx, CpEvent::Failed(request));
                }
            }
            CpEvent::DeviceGone { usn } => {
                if let Some((usn, _)) = self.devices.remove_entry(usn.as_str()) {
                    self.core.depart(ctx, &usn);
                }
            }
            CpEvent::Description { location, desc, .. } => {
                let core = &self.core;
                let Some((usn, dev)) = self
                    .devices
                    .iter()
                    .find(|(usn, d)| d.location == location && core.translator(usn).is_none())
                else {
                    return;
                };
                // The paper's dominant Figure-10 cost: instantiating the
                // translator's ports and hierarchy entities.
                let entity = Entity {
                    key: Rc::clone(usn),
                    name: desc.friendly_name.clone(),
                    seen_at: dev.seen_at,
                };
                let entities = desc.services.len().saturating_sub(1);
                self.core
                    .instantiate(ctx, &dev.doc, entities, &desc.friendly_name, entity);
                // Subscribe to GENA events for services with statevar
                // bindings (output ports).
                let mut services: Vec<String> = Vec::new();
                for port in dev.doc.ports() {
                    for binding in &port.bindings {
                        if binding.get("statevar").is_some() {
                            if let Some(service) = binding.get("service") {
                                if !services.iter().any(|s| s == service) {
                                    services.push(service.to_owned());
                                }
                            }
                        }
                    }
                }
                for service in services {
                    if let Err(request) = self.cp.subscribe(ctx, location, &service) {
                        self.handle_cp_event(ctx, CpEvent::Failed(request));
                    }
                }
            }
            CpEvent::ActionResult { call_id, result } => {
                if let Some((connection, translator, started, native_span)) =
                    self.pending_calls.remove(&call_id)
                {
                    ctx.span_end(native_span);
                    if matches!(result, SoapResult::Fault { .. }) {
                        ctx.bump("mapper.upnp.soap_faults", 1);
                    }
                    let mut stats = self.core.stats.borrow_mut();
                    stats.actions += 1;
                    stats
                        .action_latencies
                        .push(ctx.now().saturating_since(started));
                    drop(stats);
                    ctx.bump(simnet::metric_id!("mapper.upnp.actions_completed"), 1);
                    ack_input_done(ctx, self.core.runtime(), connection, translator);
                }
            }
            CpEvent::Event(notify) => {
                let Some((usn, dev)) = self.devices.get_key_value(notify.device.as_str()) else {
                    return;
                };
                let Some(translator) = self.core.translator(usn) else {
                    return;
                };
                for (var, value) in notify.changes {
                    // Find the output port bound to this state variable.
                    let port = dev.doc.ports().iter().find(|p| {
                        p.bindings.iter().any(|b| {
                            b.get("statevar") == Some(var.as_str())
                                && b.get("service").is_none_or(|s| s == notify.service)
                        })
                    });
                    if let Some(port) = port {
                        ctx.busy(calib::EVENT_TRANSLATION);
                        self.core.record_egress(ctx, calib::EVENT_TRANSLATION);
                        self.core.stats.borrow_mut().events += 1;
                        self.core.client.output(
                            ctx,
                            translator,
                            port.spec.name.as_str(),
                            UMessage::text(value),
                        );
                    }
                }
            }
            CpEvent::Subscribed { .. } => {}
            CpEvent::Failed(request) => {
                ctx.bump("mapper.upnp.failures", 1);
                match request {
                    // Forget a device whose description could not be
                    // fetched, so its next `ssdp:alive` or search answer
                    // starts over instead of being taken as known.
                    CpRequest::Description { location } => {
                        let core = &self.core;
                        self.devices.retain(|usn, d| {
                            d.location != location || core.translator(usn).is_some()
                        });
                    }
                    // A failed action still answers its input, returning
                    // the delivery credit.
                    CpRequest::Action { call_id } => {
                        if let Some((connection, translator, _, native_span)) =
                            self.pending_calls.remove(&call_id)
                        {
                            ctx.span_end(native_span);
                            ack_input_done(ctx, self.core.runtime(), connection, translator);
                        }
                    }
                    CpRequest::Subscribe { .. } => {}
                }
            }
        }
    }

    /// Translates one delivered input into a SOAP action invoke.
    fn handle_input(&mut self, ctx: &mut Ctx<'_>, input: Input<Rc<str>>) {
        let Input {
            key: usn,
            translator,
            port,
            msg,
            connection,
        } = input;
        let Some(dev) = self.devices.get(&usn) else {
            return;
        };
        let Some(usdl_port) = dev.doc.port(&port) else {
            return;
        };
        let Some(binding) = usdl_port
            .bindings
            .iter()
            .find(|b| b.get("action").is_some())
        else {
            // No action binding: nothing to invoke.
            ack_input_done(ctx, self.core.runtime(), connection, translator);
            return;
        };
        let mut call = SoapCall::new(
            binding.get("service").unwrap_or_default(),
            binding.get("action").expect("filtered"),
        );
        if let Some(argument) = binding.get("argument") {
            // Fixed value (e.g. SetPower=1) or the message body.
            let value = binding
                .get("value")
                .or_else(|| msg.body_text())
                .unwrap_or_default();
            call = call.with_arg(argument, value);
        }
        // The uMiddle share of the paper's 160 ms SetPower round
        // trip: translating the control request to an action
        // object. The invoke is deferred through a self-echo so
        // the translation time actually precedes the native call.
        ctx.busy(calib::CONTROL_TRANSLATION);
        self.core
            .record_hop(ctx, connection, port, calib::CONTROL_TRANSLATION);
        let call_id = self.next_call;
        self.next_call += 1;
        let location = dev.location;
        // Native-side span: open until the SOAP ActionResult
        // comes back, so the critical path separates uMiddle
        // translation from time spent inside the UPnP device.
        let native_span = ctx.span_begin(
            connection.corr(),
            "bridge.upnp.native",
            SpanDetail::new(
                &["action=", ""],
                [DetailArg::Str(Symbol::new(&call.action).as_static())],
            ),
        );
        self.pending_calls
            .insert(call_id, (connection, translator, ctx.now(), native_span));
        let me = ctx.me();
        ctx.send_local(
            me,
            PendingInvoke {
                location,
                call,
                call_id,
            },
        );
    }
}

/// Self-echo carrying a translated SOAP call, delivered once the
/// mapper's modeled translation time has elapsed.
#[derive(Debug, Clone)]
struct PendingInvoke {
    location: Addr,
    call: SoapCall,
    call_id: u64,
}

impl Process for UpnpMapper {
    fn name(&self) -> &str {
        "upnp-mapper"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.announce(ctx);
        ctx.bind(self.reply_port).expect("mapper reply port free");
        let _ = ctx.join_group(platform_upnp::SSDP_GROUP);
        self.cp.listen_events(ctx, self.gena_port);
        self.cp.search(ctx, "ssdp:all", self.reply_port);
        ctx.set_timer(SEARCH_INTERVAL, TIMER_SEARCH);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_SEARCH {
            self.cp.search(ctx, "ssdp:all", self.reply_port);
            ctx.set_timer(SEARCH_INTERVAL, TIMER_SEARCH);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if let Some(event) = self.cp.handle_ssdp(ctx, &dgram) {
            self.handle_cp_event(ctx, event);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        let events = self.cp.handle_stream(ctx, stream, event);
        for ev in events {
            self.handle_cp_event(ctx, ev);
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        match self.core.route(ctx, msg) {
            Routed::Input(input) => self.handle_input(ctx, input),
            Routed::Other(msg) => {
                let Ok(pending) = msg.downcast::<PendingInvoke>() else {
                    return;
                };
                if let Err(request) =
                    self.cp
                        .invoke(ctx, pending.location, &pending.call, pending.call_id)
                {
                    self.handle_cp_event(ctx, CpEvent::Failed(request));
                }
            }
            Routed::Registered(..) | Routed::Handled => {}
        }
    }
}
