//! Scattered visibility (the paper's design 2-a), as an extension.
//!
//! uMiddle itself chooses *aggregated* visibility: devices from foreign
//! platforms are visible only inside the intermediary semantic space, so
//! "uMiddle does not allow applications built on native platforms to
//! access devices on other platforms" (§3.6). This module implements the
//! road not taken, so the trade-off can be exercised and measured: a
//! [`UpnpExporter`] projects selected uMiddle translators *back out* as
//! native UPnP devices. A stock UPnP control point can then discover a
//! Bluetooth camera and trigger its shutter over plain SOAP.
//!
//! The cost the paper predicts is visible in the implementation: this
//! exporter is UPnP-specific; exporting to n native platforms means n
//! exporters, each re-encoding every foreign device — the n(n−1)
//! explosion in another guise.

use std::collections::HashMap;
use std::convert::Infallible;

use platform_upnp::{
    ActionArg, ActionDesc, ArgDirection, DeviceDesc, HttpConns, HttpEvent, HttpResponse,
    ServiceDesc, SoapCall, SoapResult, SsdpMessage, SSDP_GROUP,
};
use simnet::{Ctx, Datagram, LocalMessage, ProcId, Process, SimDuration, StreamEvent, StreamId};
use umiddle_core::{
    Direction, DirectoryEvent, PortRef, QosPolicy, Query, RuntimeClient, RuntimeEvent,
    TranslatorId, TranslatorProfile, UMessage,
};

const TIMER_ANNOUNCE: u64 = 1;
const ANNOUNCE_INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Converts a port name to a UPnP action name (`capture` → `SetCapture`).
fn action_name(port: &str) -> String {
    let mut out = String::from("Set");
    let mut upper = true;
    for c in port.chars() {
        if c == '-' || c == '_' {
            upper = true;
        } else if upper {
            out.extend(c.to_uppercase());
            upper = false;
        } else {
            out.push(c);
        }
    }
    out
}

#[derive(Debug)]
struct Exported {
    /// The foreign translator being projected.
    target: TranslatorProfile,
    /// Our shadow translator feeding the target's input ports.
    shadow: Option<TranslatorId>,
    /// UPnP-visible description.
    desc: DeviceDesc,
    desc_xml: String,
    /// HTTP port this export serves on.
    http_port: u16,
    /// action name → target input port name.
    actions: HashMap<String, String>,
    /// Paths pending: input port name → wired?
    wired: bool,
}

/// Projects uMiddle translators out to the native UPnP platform
/// (design 2-a). One process exports every translator matching `filter`.
pub struct UpnpExporter {
    filter: Query,
    base_port: u16,
    client: RuntimeClient,
    exports: Vec<Exported>,
    pending_regs: HashMap<u64, usize>,
    /// Accepted connections; each request goes to the export serving
    /// the port it arrived on.
    http: HttpConns<Infallible>,
    next_port_offset: u16,
}

impl std::fmt::Debug for UpnpExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpnpExporter")
            .field("exports", &self.exports.len())
            .finish_non_exhaustive()
    }
}

impl UpnpExporter {
    /// Creates an exporter for translators matching `filter`, serving
    /// UPnP devices on ports `base_port..`.
    pub fn new(runtime: ProcId, filter: Query, base_port: u16) -> UpnpExporter {
        UpnpExporter {
            filter,
            base_port,
            client: RuntimeClient::new(runtime),
            exports: Vec::new(),
            pending_regs: HashMap::new(),
            http: HttpConns::new(),
            next_port_offset: 0,
        }
    }

    fn udn_for(profile: &TranslatorProfile) -> String {
        format!("uuid:export-{}", profile.id())
    }

    fn build_export(&mut self, ctx: &mut Ctx<'_>, profile: TranslatorProfile) {
        // Never re-export native UPnP devices (loop protection).
        if profile.platform() == "upnp" {
            return;
        }
        if self.exports.iter().any(|e| e.target.id() == profile.id()) {
            return;
        }
        // Only digital input ports become actions.
        let inputs: Vec<_> = profile
            .shape()
            .ports_in(Direction::Input)
            .filter(|p| p.kind.is_digital())
            .cloned()
            .collect();
        if inputs.is_empty() {
            return;
        }
        let mut service = ServiceDesc::new("Exported");
        let mut actions = HashMap::new();
        for p in &inputs {
            let action = action_name(&p.name);
            service = service.with_action(ActionDesc {
                name: action.clone(),
                args: vec![ActionArg {
                    name: "Value".to_owned(),
                    direction: ArgDirection::In,
                    related_statevar: "Value".to_owned(),
                }],
            });
            actions.insert(action, p.name.clone());
        }
        service = service.with_statevar("Value", false, "");
        let desc = DeviceDesc::new(
            "urn:umiddle:device:Exported:1",
            &format!("{} (exported)", profile.name()),
            &UpnpExporter::udn_for(&profile),
        )
        .with_service(service);
        let http_port = self.base_port + self.next_port_offset;
        self.next_port_offset += 1;
        ctx.listen(http_port).expect("export port free");

        // Register the shadow translator: one output per target input.
        let mut shape = umiddle_core::Shape::builder();
        for p in &inputs {
            let mime = match &p.kind {
                umiddle_core::PortKind::Digital(m) => m.clone(),
                umiddle_core::PortKind::Physical { .. } => unreachable!("filtered"),
            };
            shape = shape.digital(&p.name, Direction::Output, mime);
        }
        let shadow_profile = TranslatorProfile::builder(
            TranslatorId::new(umiddle_core::RuntimeId(u32::MAX), 0),
            format!("upnp-export-shadow:{}", profile.id()),
        )
        .attr("role", "export-shadow")
        .shape(shape.build().expect("unique port names from a valid shape"))
        .build();
        let me = ctx.me();
        let token = self.client.register(ctx, shadow_profile, me);
        let desc_xml = desc.to_xml();
        self.exports.push(Exported {
            target: profile,
            shadow: None,
            desc,
            desc_xml,
            http_port,
            actions,
            wired: false,
        });
        self.pending_regs.insert(token, self.exports.len() - 1);
    }

    fn announce(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(e) = self.exports.get(idx) else {
            return;
        };
        let msg = SsdpMessage::Alive {
            usn: e.desc.udn.clone(),
            device_type: e.desc.device_type.clone(),
            location: simnet::Addr::new(ctx.node(), e.http_port),
            max_age: 1800,
        };
        let _ = ctx.multicast(e.http_port, SSDP_GROUP, msg.to_bytes());
    }

    fn wire_shadow(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(e) = self.exports.get_mut(idx) else {
            return;
        };
        let (Some(shadow), false) = (e.shadow, e.wired) else {
            return;
        };
        e.wired = true;
        let pairs: Vec<(String, PortRef)> = e
            .actions
            .values()
            .map(|port| (port.clone(), PortRef::new(e.target.id(), port.clone())))
            .collect();
        for (port, dst) in pairs {
            self.client.connect_ports(
                ctx,
                PortRef::new(shadow, port),
                dst,
                QosPolicy::bounded_drop_newest(64 * 1024),
            );
        }
    }

    fn handle_http(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        idx: usize,
        req: platform_upnp::HttpRequest,
    ) {
        let response = match (req.method(), req.path()) {
            ("GET", "/description.xml") => {
                let e = &self.exports[idx];
                HttpResponse::xml(e.desc_xml.clone())
            }
            ("POST", "/control") => {
                let call = std::str::from_utf8(&req.body)
                    .ok()
                    .and_then(SoapCall::parse);
                match call {
                    Some(call) => {
                        let port = self.exports[idx].actions.get(&call.action).cloned();
                        match (port, self.exports[idx].shadow) {
                            (Some(port), Some(shadow)) => {
                                let value = call
                                    .args
                                    .iter()
                                    .find(|(k, _)| k == "Value")
                                    .map(|(_, v)| v.clone())
                                    .unwrap_or_default();
                                self.client.output(ctx, shadow, port, UMessage::text(value));
                                ctx.bump("export.actions", 1);
                                HttpResponse::xml(
                                    SoapResult::Ok {
                                        action: call.action,
                                        args: vec![],
                                    }
                                    .to_xml(),
                                )
                            }
                            _ => HttpResponse::xml(
                                SoapResult::Fault {
                                    code: 401,
                                    description: format!("Invalid Action {}", call.action),
                                }
                                .to_xml(),
                            ),
                        }
                    }
                    None => HttpResponse::new(400),
                }
            }
            _ => HttpResponse::new(404),
        };
        let _ = ctx.stream_send(stream, response.to_bytes());
        ctx.stream_close(stream);
    }
}

impl Process for UpnpExporter {
    fn name(&self) -> &str {
        "upnp-exporter"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.join_group(SSDP_GROUP);
        self.client.add_listener(ctx, self.filter.clone());
        ctx.set_timer(ANNOUNCE_INTERVAL, TIMER_ANNOUNCE);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_ANNOUNCE {
            for idx in 0..self.exports.len() {
                self.announce(ctx, idx);
            }
            ctx.set_timer(ANNOUNCE_INTERVAL, TIMER_ANNOUNCE);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Answer native M-SEARCHes for our exported devices.
        if let Some(SsdpMessage::MSearch { st, reply_to }) = SsdpMessage::parse(&dgram.data) {
            for idx in 0..self.exports.len() {
                let (matches, usn, device_type, http_port) = {
                    let e = &self.exports[idx];
                    (
                        SsdpMessage::search_matches(&st, &e.desc.device_type),
                        e.desc.udn.clone(),
                        e.desc.device_type.clone(),
                        e.http_port,
                    )
                };
                if matches {
                    let resp = SsdpMessage::SearchResponse {
                        usn,
                        device_type,
                        location: simnet::Addr::new(ctx.node(), http_port),
                        max_age: 1800,
                    };
                    let _ = ctx.send_to(http_port, reply_to, resp.to_bytes());
                }
            }
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        for event in self.http.on_stream(ctx, stream, event) {
            let HttpEvent::Request { port, request } = event;
            if let Some(idx) = self.exports.iter().position(|e| e.http_port == port) {
                self.handle_http(ctx, stream, idx, request);
            }
        }
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                // Never export our own shadows.
                if profile.attr("role") == Some("export-shadow") {
                    return;
                }
                self.build_export(ctx, profile);
            }
            RuntimeEvent::Registered { token, translator } => {
                if let Some(idx) = self.pending_regs.remove(&token) {
                    if let Some(e) = self.exports.get_mut(idx) {
                        e.shadow = Some(translator);
                    }
                    self.announce(ctx, idx);
                    self.wire_shadow(ctx, idx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_names_are_camel_cased() {
        assert_eq!(action_name("capture"), "SetCapture");
        assert_eq!(action_name("switch-on"), "SetSwitchOn");
        assert_eq!(action_name("set_time"), "SetSetTime");
    }
}
