//! The generic emulated UPnP device engine.
//!
//! [`UpnpDevice`] is a simnet process that plays the role of one UPnP
//! device on the network: it announces itself over SSDP, answers
//! M-SEARCHes, serves its description over HTTP, executes SOAP control
//! requests against a pluggable [`DeviceLogic`], and pushes GENA event
//! notifications to subscribers. CPU costs are modeled per the `calib`
//! module, reproducing the XML-marshaling-dominated profile the paper
//! measured.

use std::collections::BTreeMap;
use std::convert::Infallible;

use simnet::{Addr, Ctx, Datagram, Process, SimDuration, StreamEvent, StreamId};

use crate::calib;
use crate::description::DeviceDesc;
use crate::gena::{Notify, Subscribe};
use crate::http::{HttpConns, HttpEvent, HttpRequest, HttpResponse};
use crate::soap::{SoapCall, SoapResult};
use crate::ssdp::{SsdpMessage, SSDP_GROUP};

/// Timer tokens.
const TIMER_ANNOUNCE: u64 = 0;
const TIMER_TICK: u64 = 1;

/// The device's mutable state variables, with change tracking for GENA.
#[derive(Debug, Default)]
pub struct StateTable {
    vars: BTreeMap<String, String>,
    changed: Vec<(String, String)>,
}

impl StateTable {
    /// Reads a state variable.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.vars.get(name).map(String::as_str)
    }

    /// Writes a state variable, recording the change for eventing. An
    /// unchanged value is neither stored again nor recorded.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        let value = value.as_ref();
        match self.vars.get_mut(name) {
            Some(current) if current == value => return,
            Some(current) => {
                current.clear();
                current.push_str(value);
            }
            None => {
                self.vars.insert(name.to_owned(), value.to_owned());
            }
        }
        self.changed.push((name.to_owned(), value.to_owned()));
    }

    /// Takes the accumulated changes.
    fn take_changes(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.changed)
    }

    /// All current variables.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// Device-specific behaviour plugged into [`UpnpDevice`].
pub trait DeviceLogic {
    /// The device's self-description.
    fn description(&self) -> DeviceDesc;

    /// Executes an action.
    ///
    /// # Errors
    ///
    /// Returns `(code, description)` UPnP faults for unknown actions or
    /// invalid arguments.
    fn invoke(
        &mut self,
        action: &str,
        args: &[(String, String)],
        state: &mut StateTable,
    ) -> Result<Vec<(String, String)>, (u32, String)>;

    /// Periodic behaviour (a clock advancing its `Time` variable).
    fn tick(&mut self, state: &mut StateTable) {
        let _ = state;
    }

    /// How often [`DeviceLogic::tick`] runs, if at all.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }
}

/// A simulated UPnP device (SSDP + HTTP + SOAP + GENA server).
pub struct UpnpDevice {
    logic: Box<dyn DeviceLogic>,
    desc: DeviceDesc,
    desc_xml: String,
    http_port: u16,
    max_age: u32,
    state: StateTable,
    subs: Vec<Subscription>,
    next_sid: u32,
    /// Accepted HTTP connections and one-way NOTIFYs: the device awaits
    /// no response, so the table holds no exchange.
    http: HttpConns<Infallible>,
}

#[derive(Debug)]
struct Subscription {
    service: String,
    callback: Addr,
    sid: u32,
    seq: u32,
}

impl std::fmt::Debug for UpnpDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpnpDevice")
            .field("friendly_name", &self.desc.friendly_name)
            .field("device_type", &self.desc.device_type)
            .field("http_port", &self.http_port)
            .finish_non_exhaustive()
    }
}

impl UpnpDevice {
    /// Creates a device serving HTTP on `http_port`.
    pub fn new(logic: Box<dyn DeviceLogic>, http_port: u16) -> UpnpDevice {
        let desc = logic.description();
        let desc_xml = desc.to_xml();
        let mut state = StateTable::default();
        for s in &desc.services {
            for v in &s.state_vars {
                state.set(&v.name, v.initial.clone());
            }
        }
        state.take_changes(); // initial values are not events
        UpnpDevice {
            logic,
            desc,
            desc_xml,
            http_port,
            max_age: 1800,
            state,
            subs: Vec::new(),
            next_sid: 1,
            http: HttpConns::new(),
        }
    }

    /// The device's description.
    pub fn description(&self) -> &DeviceDesc {
        &self.desc
    }

    /// Current GENA subscriptions as `(sid, service)` pairs.
    pub fn subscriptions(&self) -> impl Iterator<Item = (u32, &str)> {
        self.subs.iter().map(|s| (s.sid, s.service.as_str()))
    }

    fn location(&self, ctx: &Ctx<'_>) -> Addr {
        Addr::new(ctx.node(), self.http_port)
    }

    fn announce(&mut self, ctx: &mut Ctx<'_>) {
        let msg = SsdpMessage::Alive {
            usn: self.desc.udn.clone(),
            device_type: self.desc.device_type.clone(),
            location: self.location(ctx),
            max_age: self.max_age,
        };
        ctx.busy(calib::SSDP_CODEC);
        let _ = ctx.multicast(self.http_port, SSDP_GROUP, msg.to_bytes());
    }

    /// The time until the next re-announcement: a quarter of `max_age`
    /// plus a per-device phase below another quarter, so devices that
    /// start together do not re-announce together. UDA 1.0 §1.1.2 asks
    /// for "a randomly-distributed interval of less than one-half of the
    /// advertisement expiration time". The phase is the FNV-1a hash of
    /// the UDN rather than a draw from the world's one random stream,
    /// which would shift every later draw.
    fn reannounce_delay(&self) -> SimDuration {
        let quarter_ms = u64::from(self.max_age) * 1000 / 4;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.desc.udn.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        SimDuration::from_millis(quarter_ms + h % quarter_ms)
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, req: HttpRequest) {
        let response = match (req.method(), req.path()) {
            ("GET", "/description.xml") => {
                ctx.busy(calib::xml_codec_cost(self.desc_xml.len()));
                HttpResponse::xml(self.desc_xml.clone())
            }
            ("POST", "/control") => self.handle_control(ctx, &req),
            ("SUBSCRIBE", _) => self.handle_subscribe(ctx, &req),
            _ => HttpResponse::new(404),
        };
        let _ = ctx.stream_send(stream, response.to_bytes());
        ctx.stream_close(stream);
        // Control may have changed evented state.
        self.flush_events(ctx);
    }

    fn handle_control(&mut self, ctx: &mut Ctx<'_>, req: &HttpRequest) -> HttpResponse {
        ctx.busy(calib::xml_codec_cost(req.body.len()));
        let Some(call) = std::str::from_utf8(&req.body)
            .ok()
            .and_then(SoapCall::parse)
        else {
            return HttpResponse::new(400);
        };
        ctx.busy(calib::ACTION_PROCESS);
        let result = if self.desc.service_for_action(&call.action).is_none() {
            SoapResult::Fault {
                code: 401,
                description: format!("Invalid Action {}", call.action),
            }
        } else {
            match self.logic.invoke(&call.action, &call.args, &mut self.state) {
                Ok(args) => SoapResult::Ok {
                    action: call.action.clone(),
                    args,
                },
                Err((code, description)) => SoapResult::Fault { code, description },
            }
        };
        let xml = result.to_xml();
        ctx.busy(calib::xml_codec_cost(xml.len()));
        ctx.bump(simnet::metric_id!("upnp.actions"), 1);
        HttpResponse::xml(xml)
    }

    fn handle_subscribe(&mut self, ctx: &mut Ctx<'_>, req: &HttpRequest) -> HttpResponse {
        let Some(sub) = Subscribe::from_request(req) else {
            return HttpResponse::new(400);
        };
        ctx.busy(calib::SUBSCRIBE_PROCESS);
        let sid = self.next_sid;
        self.next_sid += 1;
        // Initial event: full evented state of the service (seq 0).
        let initial: Vec<(String, String)> = self
            .desc
            .service(&sub.service)
            .map(|svc| {
                svc.state_vars
                    .iter()
                    .filter(|v| v.send_events)
                    .filter_map(|v| {
                        self.state
                            .get(&v.name)
                            .map(|val| (v.name.clone(), val.to_owned()))
                    })
                    .collect()
            })
            .unwrap_or_default();
        self.subs.push(Subscription {
            service: sub.service.clone(),
            callback: sub.callback,
            sid,
            seq: 1,
        });
        if !initial.is_empty() {
            self.send_notify(ctx, sub.callback, &sub.service, 0, initial);
        }
        ctx.bump("upnp.subscriptions", 1);
        Subscribe::accept(sid)
    }

    fn flush_events(&mut self, ctx: &mut Ctx<'_>) {
        let changes = self.state.take_changes();
        if changes.is_empty() {
            return;
        }
        // Deliver each change set to subscribers of the owning service.
        let subs: Vec<(Addr, String, u32)> = self
            .subs
            .iter_mut()
            .map(|s| {
                let seq = s.seq;
                s.seq += 1;
                (s.callback, s.service.clone(), seq)
            })
            .collect();
        for (callback, service, seq) in subs {
            let relevant: Vec<(String, String)> = changes
                .iter()
                .filter(|(name, _)| {
                    self.desc
                        .service(&service)
                        .map(|svc| {
                            svc.state_vars
                                .iter()
                                .any(|v| v.name == *name && v.send_events)
                        })
                        .unwrap_or(false)
                })
                .cloned()
                .collect();
            if !relevant.is_empty() {
                self.send_notify(ctx, callback, &service, seq, relevant);
            }
        }
    }

    fn send_notify(
        &mut self,
        ctx: &mut Ctx<'_>,
        callback: Addr,
        service: &str,
        seq: u32,
        changes: Vec<(String, String)>,
    ) {
        let notify = Notify {
            device: self.desc.udn.clone(),
            service: service.to_owned(),
            seq,
            changes,
        };
        let req = notify.to_request();
        let bytes = req.to_bytes();
        ctx.busy(calib::xml_codec_cost(bytes.len()));
        if self.http.send(ctx, callback, bytes) {
            ctx.bump(simnet::metric_id!("upnp.notifies"), 1);
        }
    }
}

impl Process for UpnpDevice {
    fn name(&self) -> &str {
        "upnp-device"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.http_port).expect("device http port free");
        // Multicast reception needs only group membership, not a bound
        // port; unicast replies are sent with the HTTP port as source.
        let _ = ctx.join_group(SSDP_GROUP);
        self.announce(ctx);
        ctx.set_timer(self.reannounce_delay(), TIMER_ANNOUNCE);
        if let Some(interval) = self.logic.tick_interval() {
            ctx.set_timer(interval, TIMER_TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TIMER_ANNOUNCE => {
                self.announce(ctx);
                ctx.set_timer(self.reannounce_delay(), TIMER_ANNOUNCE);
            }
            TIMER_TICK => {
                self.logic.tick(&mut self.state);
                self.flush_events(ctx);
                if let Some(interval) = self.logic.tick_interval() {
                    ctx.set_timer(interval, TIMER_TICK);
                }
            }
            _ => {}
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Some(msg) = SsdpMessage::parse(&dgram.data) else {
            return;
        };
        ctx.busy(calib::SSDP_CODEC);
        if let SsdpMessage::MSearch { st, reply_to } = msg {
            if SsdpMessage::search_matches(&st, &self.desc.device_type) {
                let resp = SsdpMessage::SearchResponse {
                    usn: self.desc.udn.clone(),
                    device_type: self.desc.device_type.clone(),
                    location: self.location(ctx),
                    max_age: self.max_age,
                };
                let _ = ctx.send_to(self.http_port, reply_to, resp.to_bytes());
            }
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        for event in self.http.on_stream(ctx, stream, event) {
            let HttpEvent::Request { request, .. } = event;
            self.handle_request(ctx, stream, request);
        }
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        let msg = SsdpMessage::ByeBye {
            usn: self.desc.udn.clone(),
            device_type: self.desc.device_type.clone(),
        };
        let _ = ctx.multicast(self.http_port, SSDP_GROUP, msg.to_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::{ActionArg, ActionDesc, ArgDirection, ServiceDesc};
    use crate::devices::LightLogic;
    use simnet::{SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct NullLogic;
    impl DeviceLogic for NullLogic {
        fn description(&self) -> DeviceDesc {
            DeviceDesc::new("urn:test:Null:1", "Null", "uuid:null").with_service(
                ServiceDesc::new("S")
                    .with_action(ActionDesc {
                        name: "Do".to_owned(),
                        args: vec![ActionArg {
                            name: "X".to_owned(),
                            direction: ArgDirection::In,
                            related_statevar: "X".to_owned(),
                        }],
                    })
                    .with_statevar("X", true, "0"),
            )
        }
        fn invoke(
            &mut self,
            action: &str,
            args: &[(String, String)],
            state: &mut StateTable,
        ) -> Result<Vec<(String, String)>, (u32, String)> {
            if action == "Do" {
                if let Some((_, v)) = args.first() {
                    state.set("X", v.clone());
                }
                Ok(vec![])
            } else {
                Err((401, "bad".to_owned()))
            }
        }
    }

    #[test]
    fn state_table_tracks_changes() {
        let mut st = StateTable::default();
        st.set("A", "1");
        st.set("A", "1"); // no-op
        st.set("A", "2");
        assert_eq!(st.get("A"), Some("2"));
        assert_eq!(
            st.take_changes(),
            vec![
                ("A".to_owned(), "1".to_owned()),
                ("A".to_owned(), "2".to_owned())
            ]
        );
        assert!(st.take_changes().is_empty());
    }

    #[test]
    fn device_builds_initial_state_from_description() {
        let dev = UpnpDevice::new(Box::new(NullLogic), 5000);
        assert_eq!(dev.state.get("X"), Some("0"));
        assert_eq!(dev.description().friendly_name, "Null");
    }

    /// Records when each `ssdp:alive` reaches it.
    struct AliveLog(Rc<RefCell<Vec<SimTime>>>);

    impl Process for AliveLog {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let _ = ctx.join_group(SSDP_GROUP);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            if let Some(SsdpMessage::Alive { .. }) = SsdpMessage::parse(&dgram.data) {
                self.0.borrow_mut().push(ctx.now());
            }
        }
    }

    /// `federation`'s 167 lights start together. Past their initial
    /// announcements, no 1 s window of the next two re-announce periods
    /// (up to 2,000 virtual s) holds more than `BURST` of their
    /// re-announcements: each device's phase spreads them over
    /// `[max_age / 4, max_age / 2)`.
    #[test]
    fn lights_started_together_reannounce_spread_out() {
        const LIGHTS: usize = 167;
        const BURST: usize = 4;
        let mut world = World::new(1);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        for i in 0..LIGHTS {
            let node = world.add_node(format!("light-{i}"));
            world.attach(node, hub).unwrap();
            let logic = LightLogic::new(&format!("E9 Light {i:04}"), &format!("uuid:e9l{i}"));
            world.add_process(node, Box::new(UpnpDevice::new(Box::new(logic), 5000)));
        }
        let listener = world.add_node("listener");
        world.attach(listener, hub).unwrap();
        let seen = Rc::new(RefCell::new(Vec::new()));
        world.add_process(listener, Box::new(AliveLog(Rc::clone(&seen))));
        world.run_until(SimTime::from_secs(2_000));

        let seen = seen.borrow();
        let (initial, again): (Vec<SimTime>, Vec<SimTime>) =
            seen.iter().partition(|t| **t < SimTime::from_secs(1));
        assert_eq!(initial.len(), LIGHTS, "one initial announcement each");
        assert!(
            again.len() >= 2 * LIGHTS,
            "{} re-announcements",
            again.len()
        );
        let mut busiest = 0;
        let mut start = 0;
        for (end, t) in again.iter().enumerate() {
            while *t - again[start] >= SimDuration::from_secs(1) {
                start += 1;
            }
            busiest = busiest.max(end + 1 - start);
        }
        assert!(
            busiest <= BURST,
            "{busiest} re-announcements in one 1 s window (bound {BURST})"
        );
    }
}
