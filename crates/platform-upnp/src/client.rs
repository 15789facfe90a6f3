//! Control-point helpers: the client side of SSDP/HTTP/SOAP/GENA.
//!
//! [`ControlPoint`] is embedded in a host process (the uMiddle UPnP
//! mapper, or test drivers) and manages the asynchronous request/response
//! plumbing over simnet streams: description fetches, action invocations
//! and event subscriptions. The host forwards its stream events and SSDP
//! datagrams; the control point hands back typed [`CpEvent`]s.

use std::collections::HashMap;

use simnet::{Addr, Ctx, Datagram, Payload, StreamEvent, StreamId};

use crate::calib;
use crate::description::DeviceDesc;
use crate::gena::{Notify, Subscribe};
use crate::http::{HttpAccumulator, HttpMessage, HttpRequest, HttpResponse};
use crate::soap::{SoapCall, SoapResult};
use crate::ssdp::SsdpMessage;

/// Events produced by the control point.
#[derive(Debug, Clone, PartialEq)]
pub enum CpEvent {
    /// An SSDP alive or search response was heard.
    DeviceSeen {
        /// Unique device name.
        usn: String,
        /// Device type URN.
        device_type: String,
        /// Description location.
        location: Addr,
    },
    /// An SSDP byebye was heard.
    DeviceGone {
        /// Unique device name.
        usn: String,
    },
    /// A description fetch completed.
    Description {
        /// Where it was fetched from.
        location: Addr,
        /// The parsed description.
        desc: DeviceDesc,
        /// Raw XML size (used for cost accounting by callers).
        raw_len: usize,
    },
    /// An action invocation completed.
    ActionResult {
        /// Correlation id passed to [`ControlPoint::invoke`].
        call_id: u64,
        /// The SOAP result.
        result: SoapResult,
    },
    /// A subscription was accepted.
    Subscribed {
        /// The service subscribed to.
        service: String,
        /// Description location of the device.
        location: Addr,
    },
    /// A GENA event arrived on our callback listener.
    Event(Notify),
    /// A request failed (connection refused, peer died, parse error).
    Failed {
        /// What was being attempted.
        context: String,
    },
}

#[derive(Debug)]
enum Pending {
    Description {
        location: Addr,
        acc: HttpAccumulator,
        sent: bool,
        request: Payload,
    },
    Action {
        call_id: u64,
        acc: HttpAccumulator,
        sent: bool,
        request: Payload,
    },
    Subscribe {
        service: String,
        location: Addr,
        acc: HttpAccumulator,
        sent: bool,
        request: Payload,
    },
    /// An inbound connection on the GENA callback listener.
    Inbound { acc: HttpAccumulator },
}

/// The client-side engine. Hosts must:
///
/// 1. call [`ControlPoint::listen_events`] once at start (for GENA),
/// 2. forward all stream events to [`ControlPoint::handle_stream`],
/// 3. forward SSDP datagrams to [`ControlPoint::handle_ssdp`].
#[derive(Debug, Default)]
pub struct ControlPoint {
    pending: HashMap<StreamId, Pending>,
    event_port: Option<u16>,
}

impl ControlPoint {
    /// Creates a control point.
    pub fn new() -> ControlPoint {
        ControlPoint::default()
    }

    /// Starts the GENA callback listener on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on this node.
    pub fn listen_events(&mut self, ctx: &mut Ctx<'_>, port: u16) {
        ctx.listen(port).expect("gena callback port free");
        self.event_port = Some(port);
    }

    /// The GENA callback address, if listening.
    pub fn event_callback(&self, ctx: &Ctx<'_>) -> Option<Addr> {
        self.event_port.map(|p| Addr::new(ctx.node(), p))
    }

    /// Sends a multicast M-SEARCH for `st` (`"ssdp:all"` or a type URN);
    /// `reply_port` must be a bound datagram port on the host.
    pub fn search(&mut self, ctx: &mut Ctx<'_>, st: &str, reply_port: u16) {
        let msg = SsdpMessage::MSearch {
            st: st.to_owned(),
            reply_to: Addr::new(ctx.node(), reply_port),
        };
        ctx.busy(calib::SSDP_CODEC);
        let _ = ctx.multicast(reply_port, crate::ssdp::SSDP_GROUP, msg.to_bytes());
    }

    /// Interprets an SSDP datagram; returns an event if it is relevant.
    pub fn handle_ssdp(&mut self, ctx: &mut Ctx<'_>, dgram: &Datagram) -> Option<CpEvent> {
        let msg = SsdpMessage::parse(&dgram.data)?;
        ctx.busy(calib::SSDP_CODEC);
        match msg {
            SsdpMessage::Alive {
                usn,
                device_type,
                location,
                ..
            }
            | SsdpMessage::SearchResponse {
                usn,
                device_type,
                location,
                ..
            } => Some(CpEvent::DeviceSeen {
                usn,
                device_type,
                location,
            }),
            SsdpMessage::ByeBye { usn, .. } => Some(CpEvent::DeviceGone { usn }),
            SsdpMessage::MSearch { .. } => None,
        }
    }

    /// Fetches a device description from `location`.
    pub fn fetch_description(&mut self, ctx: &mut Ctx<'_>, location: Addr) {
        let request = HttpRequest::new("GET", "/description.xml").to_bytes();
        match ctx.connect(location) {
            Ok(stream) => {
                self.pending.insert(
                    stream,
                    Pending::Description {
                        location,
                        acc: HttpAccumulator::new(),
                        sent: false,
                        request,
                    },
                );
            }
            Err(_) => ctx.bump("upnp.cp_connect_failed", 1),
        }
    }

    /// Invokes a SOAP action on the device at `location`.
    pub fn invoke(&mut self, ctx: &mut Ctx<'_>, location: Addr, call: &SoapCall, call_id: u64) {
        let xml = call.to_xml();
        ctx.busy(calib::xml_codec_cost(xml.len()));
        let request = HttpRequest::new("POST", "/control")
            .with_header("soapaction", call.soap_action_header())
            .with_body(xml.into_bytes())
            .to_bytes();
        match ctx.connect(location) {
            Ok(stream) => {
                self.pending.insert(
                    stream,
                    Pending::Action {
                        call_id,
                        acc: HttpAccumulator::new(),
                        sent: false,
                        request,
                    },
                );
            }
            Err(_) => ctx.bump("upnp.cp_connect_failed", 1),
        }
    }

    /// Subscribes to a service's GENA events; [`ControlPoint::listen_events`]
    /// must have been called first.
    pub fn subscribe(&mut self, ctx: &mut Ctx<'_>, location: Addr, service: &str) {
        let Some(callback) = self.event_callback(ctx) else {
            ctx.bump("upnp.cp_subscribe_without_listener", 1);
            return;
        };
        let request = Subscribe {
            service: service.to_owned(),
            callback,
        }
        .to_request()
        .to_bytes();
        match ctx.connect(location) {
            Ok(stream) => {
                self.pending.insert(
                    stream,
                    Pending::Subscribe {
                        service: service.to_owned(),
                        location,
                        acc: HttpAccumulator::new(),
                        sent: false,
                        request,
                    },
                );
            }
            Err(_) => ctx.bump("upnp.cp_connect_failed", 1),
        }
    }

    /// Processes a stream event; returns any completed [`CpEvent`]s.
    pub fn handle_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: StreamEvent,
    ) -> Vec<CpEvent> {
        let mut out = Vec::new();
        match event {
            StreamEvent::Accepted { .. } => {
                // Inbound GENA notify connection.
                self.pending.insert(
                    stream,
                    Pending::Inbound {
                        acc: HttpAccumulator::new(),
                    },
                );
            }
            StreamEvent::Connected => {
                if let Some(p) = self.pending.get_mut(&stream) {
                    let (sent, request) = match p {
                        Pending::Description { sent, request, .. }
                        | Pending::Action { sent, request, .. }
                        | Pending::Subscribe { sent, request, .. } => (sent, request),
                        Pending::Inbound { .. } => return out,
                    };
                    if !*sent {
                        *sent = true;
                        let bytes = std::mem::take(request);
                        let _ = ctx.stream_send(stream, bytes);
                    }
                }
            }
            StreamEvent::Data(data) => {
                let Some(p) = self.pending.get_mut(&stream) else {
                    return out;
                };
                match p {
                    Pending::Inbound { acc } => {
                        acc.push_payload(data);
                        while let Some(msg) = acc.take_message() {
                            if let Ok(HttpMessage::Request(req)) = msg {
                                if let Some(n) = Notify::from_request(&req) {
                                    ctx.busy(calib::xml_codec_cost(req.body.len()));
                                    out.push(CpEvent::Event(n));
                                }
                                let _ = ctx.stream_send(stream, HttpResponse::new(200).to_bytes());
                            }
                        }
                    }
                    _ => {
                        let acc = match p {
                            Pending::Description { acc, .. }
                            | Pending::Action { acc, .. }
                            | Pending::Subscribe { acc, .. } => acc,
                            Pending::Inbound { .. } => unreachable!("handled above"),
                        };
                        acc.push_payload(data);
                        if let Some(msg) = acc.take_message() {
                            let done = self.pending.remove(&stream).expect("present");
                            ctx.stream_close(stream);
                            out.extend(self.complete(ctx, done, msg));
                        }
                    }
                }
            }
            StreamEvent::Closed => {
                // Server closed; if a full message was already consumed
                // the entry is gone. Otherwise it's a failure.
                if let Some(p) = self.pending.remove(&stream) {
                    if let Pending::Inbound { .. } = p {
                        return out;
                    }
                    out.push(CpEvent::Failed {
                        context: context_of(&p),
                    });
                }
            }
            StreamEvent::ConnectFailed => {
                if let Some(p) = self.pending.remove(&stream) {
                    out.push(CpEvent::Failed {
                        context: context_of(&p),
                    });
                }
            }
            StreamEvent::Writable => {}
        }
        out
    }

    fn complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        pending: Pending,
        msg: Result<HttpMessage, String>,
    ) -> Option<CpEvent> {
        let Ok(HttpMessage::Response(resp)) = msg else {
            return Some(CpEvent::Failed {
                context: context_of(&pending),
            });
        };
        match pending {
            Pending::Description { location, .. } => {
                ctx.busy(calib::xml_codec_cost(resp.body.len()));
                match std::str::from_utf8(&resp.body)
                    .ok()
                    .and_then(DeviceDesc::parse)
                {
                    Some(desc) => Some(CpEvent::Description {
                        location,
                        desc,
                        raw_len: resp.body.len(),
                    }),
                    None => Some(CpEvent::Failed {
                        context: format!("description from {location}"),
                    }),
                }
            }
            Pending::Action { call_id, .. } => {
                ctx.busy(calib::xml_codec_cost(resp.body.len()));
                match std::str::from_utf8(&resp.body)
                    .ok()
                    .and_then(SoapResult::parse)
                {
                    Some(result) => Some(CpEvent::ActionResult { call_id, result }),
                    None => Some(CpEvent::Failed {
                        context: format!("action {call_id}"),
                    }),
                }
            }
            Pending::Subscribe {
                service, location, ..
            } => {
                if resp.status == 200 {
                    Some(CpEvent::Subscribed { service, location })
                } else {
                    Some(CpEvent::Failed {
                        context: format!("subscribe {service}"),
                    })
                }
            }
            Pending::Inbound { .. } => None,
        }
    }
}

fn context_of(p: &Pending) -> String {
    match p {
        Pending::Description { location, .. } => format!("description from {location}"),
        Pending::Action { call_id, .. } => format!("action {call_id}"),
        Pending::Subscribe { service, .. } => format!("subscribe {service}"),
        Pending::Inbound { .. } => "inbound".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::UpnpDevice;
    use crate::devices::LightLogic;
    use simnet::{LocalMessage, ProcId, Process, SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A test harness process that discovers a light, fetches its
    /// description, subscribes, flips the switch and records everything.
    struct Harness {
        cp: ControlPoint,
        log: Rc<RefCell<Vec<String>>>,
        invoked: bool,
    }

    impl Process for Harness {
        fn name(&self) -> &str {
            "harness"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(6000).unwrap();
            let _ = ctx.join_group(crate::ssdp::SSDP_GROUP);
            self.cp.listen_events(ctx, 6001);
            self.cp.search(ctx, "ssdp:all", 6000);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
            if let Some(CpEvent::DeviceSeen { location, .. }) = self.cp.handle_ssdp(ctx, &d) {
                self.log.borrow_mut().push("seen".to_owned());
                self.cp.fetch_description(ctx, location);
            }
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            for ev in self.cp.handle_stream(ctx, stream, event) {
                match ev {
                    CpEvent::Description { location, desc, .. } => {
                        self.log
                            .borrow_mut()
                            .push(format!("desc:{}", desc.friendly_name));
                        self.cp.subscribe(ctx, location, "SwitchPower");
                        if !self.invoked {
                            self.invoked = true;
                            let call =
                                SoapCall::new("SwitchPower", "SetPower").with_arg("Power", "1");
                            self.cp.invoke(ctx, location, &call, 1);
                        }
                    }
                    CpEvent::ActionResult { result, .. } => {
                        self.log.borrow_mut().push(format!("result:{result:?}"));
                    }
                    CpEvent::Subscribed { service, .. } => {
                        self.log.borrow_mut().push(format!("subscribed:{service}"));
                    }
                    CpEvent::Event(n) => {
                        for (k, v) in &n.changes {
                            self.log.borrow_mut().push(format!("event:{k}={v}"));
                        }
                    }
                    CpEvent::Failed { context } => {
                        self.log.borrow_mut().push(format!("failed:{context}"));
                    }
                    _ => {}
                }
            }
        }
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, _msg: LocalMessage) {}
    }

    #[test]
    fn full_discovery_control_eventing_cycle() {
        let mut world = World::new(11);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let dev_node = world.add_node("device-host");
        let cp_node = world.add_node("cp-host");
        world.attach(dev_node, hub).unwrap();
        world.attach(cp_node, hub).unwrap();
        world.add_process(
            dev_node,
            Box::new(UpnpDevice::new(
                Box::new(LightLogic::new("Hall Light", "uuid:hall")),
                5000,
            )),
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            cp_node,
            Box::new(Harness {
                cp: ControlPoint::new(),
                log: Rc::clone(&log),
                invoked: false,
            }),
        );
        world.run_until(SimTime::from_secs(5));
        let log = log.borrow();
        assert!(log.iter().any(|l| l == "seen"), "{log:?}");
        assert!(log.iter().any(|l| l == "desc:Hall Light"), "{log:?}");
        assert!(log.iter().any(|l| l.starts_with("subscribed")), "{log:?}");
        assert!(
            log.iter().any(|l| l.starts_with("result:Ok")),
            "action executed: {log:?}"
        );
        // The SetPower change must arrive as a GENA event.
        assert!(log.iter().any(|l| l == "event:Power=1"), "{log:?}");
    }

    #[test]
    fn action_on_dead_device_reports_failure() {
        let mut world = World::new(3);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.attach(a, hub).unwrap();
        world.attach(b, hub).unwrap();

        struct Failer {
            cp: ControlPoint,
            target: Addr,
            failed: Rc<RefCell<bool>>,
        }
        impl Process for Failer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let call = SoapCall::new("S", "A");
                self.cp.invoke(ctx, self.target, &call, 9);
            }
            fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
                for ev in self.cp.handle_stream(ctx, s, e) {
                    if matches!(ev, CpEvent::Failed { .. }) {
                        *self.failed.borrow_mut() = true;
                    }
                }
            }
        }
        let failed = Rc::new(RefCell::new(false));
        world.add_process(
            a,
            Box::new(Failer {
                cp: ControlPoint::new(),
                target: Addr::new(b, 5000),
                failed: Rc::clone(&failed),
            }),
        );
        world.run_until(SimTime::from_secs(5));
        assert!(*failed.borrow());
    }
}
