//! Control-point helpers: the client side of SSDP/HTTP/SOAP/GENA.
//!
//! [`ControlPoint`] is embedded in a host process (the uMiddle UPnP
//! mapper, or test drivers) and manages the asynchronous request/response
//! plumbing over simnet streams: description fetches, action invocations
//! and event subscriptions. The host forwards its stream events and SSDP
//! datagrams; the control point hands back typed [`CpEvent`]s.

use simnet::{Addr, Ctx, Datagram, Payload, StreamEvent, StreamId};

use crate::calib;
use crate::description::DeviceDesc;
use crate::gena::{Notify, Subscribe};
use crate::http::{HttpConns, HttpEvent, HttpRequest, HttpResponse};
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
    /// A request failed (connection refused, peer died, unreadable
    /// response).
    Failed(CpRequest),
}

/// A request the control point sends; each ends in one [`CpEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpRequest {
    /// A description fetch from `location`.
    Description {
        /// Where the description is fetched from.
        location: Addr,
    },
    /// An action invocation.
    Action {
        /// Correlation id passed to [`ControlPoint::invoke`].
        call_id: u64,
    },
    /// A GENA subscription.
    Subscribe {
        /// The service subscribed to.
        service: String,
        /// Description location of the device.
        location: Addr,
    },
}

/// The client-side engine. Hosts must:
///
/// 1. call [`ControlPoint::listen_events`] once at start (for GENA),
/// 2. forward all stream events to [`ControlPoint::handle_stream`],
/// 3. forward SSDP datagrams to [`ControlPoint::handle_ssdp`].
///
/// A request method that returns `Err` sent nothing (no route, or no
/// GENA listener); any other request ends in one event from
/// [`ControlPoint::handle_stream`].
#[derive(Debug, Default)]
pub struct ControlPoint {
    http: HttpConns<CpRequest>,
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
    ///
    /// # Errors
    ///
    /// Returns the request when the connect fails at once.
    pub fn fetch_description(
        &mut self,
        ctx: &mut Ctx<'_>,
        location: Addr,
    ) -> Result<(), CpRequest> {
        let request = HttpRequest::new("GET", "/description.xml").to_bytes();
        self.exchange(ctx, location, request, CpRequest::Description { location })
    }

    /// Invokes a SOAP action on the device at `location`.
    ///
    /// # Errors
    ///
    /// Returns the request when the connect fails at once.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx<'_>,
        location: Addr,
        call: &SoapCall,
        call_id: u64,
    ) -> Result<(), CpRequest> {
        let xml = call.to_xml();
        ctx.busy(calib::xml_codec_cost(xml.len()));
        let request = HttpRequest::new("POST", "/control")
            .with_header("soapaction", call.soap_action_header())
            .with_body(xml.into_bytes())
            .to_bytes();
        self.exchange(ctx, location, request, CpRequest::Action { call_id })
    }

    /// Subscribes to a service's GENA events.
    ///
    /// # Errors
    ///
    /// Returns the request when [`ControlPoint::listen_events`] was not
    /// called first or the connect fails at once.
    pub fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        location: Addr,
        service: &str,
    ) -> Result<(), CpRequest> {
        let tag = CpRequest::Subscribe {
            service: service.to_owned(),
            location,
        };
        let Some(callback) = self.event_callback(ctx) else {
            ctx.bump("upnp.cp_subscribe_without_listener", 1);
            return Err(tag);
        };
        let request = Subscribe {
            service: service.to_owned(),
            callback,
        }
        .to_request()
        .to_bytes();
        self.exchange(ctx, location, request, tag)
    }

    fn exchange(
        &mut self,
        ctx: &mut Ctx<'_>,
        location: Addr,
        request: Payload,
        tag: CpRequest,
    ) -> Result<(), CpRequest> {
        self.http
            .exchange(ctx, location, request, tag)
            .inspect_err(|_| ctx.bump("upnp.cp_connect_failed", 1))
    }

    /// Processes a stream event; returns any completed [`CpEvent`]s.
    pub fn handle_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: StreamEvent,
    ) -> Vec<CpEvent> {
        let mut out = Vec::new();
        for event in self.http.on_stream(ctx, stream, event) {
            match event {
                HttpEvent::Response(request, response) => {
                    out.push(complete(ctx, request, response));
                }
                HttpEvent::Failed(request) => out.push(CpEvent::Failed(request)),
                // An inbound GENA notify connection.
                HttpEvent::Request { request, .. } => {
                    if let Some(n) = Notify::from_request(&request) {
                        ctx.busy(calib::xml_codec_cost(request.body.len()));
                        out.push(CpEvent::Event(n));
                    }
                    let _ = ctx.stream_send(stream, HttpResponse::new(200).to_bytes());
                }
            }
        }
        out
    }
}

/// What a response to `request` means.
fn complete(ctx: &mut Ctx<'_>, request: CpRequest, response: Option<HttpResponse>) -> CpEvent {
    let Some(resp) = response else {
        return CpEvent::Failed(request);
    };
    let text = std::str::from_utf8(&resp.body).ok();
    match request {
        CpRequest::Description { location } => {
            ctx.busy(calib::xml_codec_cost(resp.body.len()));
            match text.and_then(DeviceDesc::parse) {
                Some(desc) => CpEvent::Description {
                    location,
                    desc,
                    raw_len: resp.body.len(),
                },
                None => CpEvent::Failed(request),
            }
        }
        CpRequest::Action { call_id } => {
            ctx.busy(calib::xml_codec_cost(resp.body.len()));
            match text.and_then(SoapResult::parse) {
                Some(result) => CpEvent::ActionResult { call_id, result },
                None => CpEvent::Failed(request),
            }
        }
        CpRequest::Subscribe { service, location } if resp.status == 200 => {
            CpEvent::Subscribed { service, location }
        }
        CpRequest::Subscribe { .. } => CpEvent::Failed(request),
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
                let _ = self.cp.fetch_description(ctx, location);
            }
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            for ev in self.cp.handle_stream(ctx, stream, event) {
                match ev {
                    CpEvent::Description { location, desc, .. } => {
                        self.log
                            .borrow_mut()
                            .push(format!("desc:{}", desc.friendly_name));
                        let _ = self.cp.subscribe(ctx, location, "SwitchPower");
                        if !self.invoked {
                            self.invoked = true;
                            let call =
                                SoapCall::new("SwitchPower", "SetPower").with_arg("Power", "1");
                            let _ = self.cp.invoke(ctx, location, &call, 1);
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
                    CpEvent::Failed(request) => {
                        self.log.borrow_mut().push(format!("failed:{request:?}"));
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
                assert_eq!(self.cp.invoke(ctx, self.target, &call, 9), Ok(()));
            }
            fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
                for ev in self.cp.handle_stream(ctx, s, e) {
                    if ev == CpEvent::Failed(CpRequest::Action { call_id: 9 }) {
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
