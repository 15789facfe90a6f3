//! # platform-webservices — a simulated web-services platform
//!
//! The paper bridges "various web services". We model XML-RPC-style
//! services: each exposes a fetchable XML description
//! ([`ServiceDescription`]) and accepts [`MethodCall`]s over HTTP POST
//! (reusing the HTTP codec from `platform-upnp` — the stacks genuinely
//! shared HTTP in that era). [`WsServer`] hosts pluggable operations;
//! [`WsClient`] is the engine the uMiddle mapper embeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;

use platform_upnp::{HttpConns, HttpEvent, HttpRequest, HttpResponse};
use simnet::{Addr, Ctx, Process, SimDuration, StreamEvent, StreamId};
use umiddle_usdl::{Element, XmlError, XmlReader, XmlWriter};

/// Host-side XML processing cost per call or response.
pub const WS_XML_COST: SimDuration = SimDuration::from_millis(8);

/// Entries a [`WsServer::logger`] returns from `tail`, and all it keeps.
pub const LOG_TAIL: usize = 10;

/// An XML-RPC-style method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodCall {
    /// Operation name.
    pub method: String,
    /// String parameters, in order.
    pub params: Vec<String>,
}

impl MethodCall {
    /// Creates a call.
    pub fn new(method: &str, params: Vec<String>) -> MethodCall {
        MethodCall {
            method: method.to_owned(),
            params,
        }
    }

    /// Serializes to XML, written field by field into one buffer (the
    /// bytes an `Element` tree of it would write).
    pub fn to_xml(&self) -> String {
        let params: usize = self.params.iter().map(|p| p.len() + 30).sum();
        let mut w = XmlWriter::document(64 + self.method.len() + params);
        w.markup("<methodCall>").leaf("methodName", &self.method);
        if self.params.is_empty() {
            w.markup("<params/>");
        } else {
            w.markup("<params>");
            for p in &self.params {
                w.markup("<param>").leaf("value", p).markup("</param>");
            }
            w.markup("</params>");
        }
        w.markup("</methodCall>");
        w.finish()
    }

    /// Parses from XML, reading the fields in place: the first
    /// `methodName` of a `methodCall` names the method, and each `param`
    /// of its first `params` contributes its first `value`'s text. The
    /// whole document must be well-formed.
    pub fn parse(xml: &str) -> Option<MethodCall> {
        let mut r = XmlReader::new(xml);
        if r.root().ok()?.local_name() != "methodCall" {
            return None;
        }
        let mut method = None;
        let mut params = None;
        r.read_children(|r, tag| {
            match tag.local_name() {
                "methodName" if method.is_none() => method = Some(r.read_text()?),
                "params" if params.is_none() => {
                    let mut values = Vec::new();
                    r.read_children(|r, param| {
                        if param.local_name() != "param" {
                            return Ok(false);
                        }
                        values.extend(read_first_value(r)?);
                        Ok(true)
                    })?;
                    params = Some(values);
                }
                _ => return Ok(false),
            }
            Ok(true)
        })
        .ok()?;
        Some(MethodCall {
            method: method?,
            params: params.unwrap_or_default(),
        })
    }
}

/// Right after a `param` start tag: its first `value`'s text, reading
/// through the end of `param`.
fn read_first_value(r: &mut XmlReader<'_>) -> Result<Option<String>, XmlError> {
    let mut value = None;
    r.read_children(|r, tag| {
        if tag.local_name() != "value" || value.is_some() {
            return Ok(false);
        }
        value = Some(r.read_text()?);
        Ok(true)
    })?;
    Ok(value)
}

/// The reply to a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodResponse {
    /// Success with a string value.
    Value(String),
    /// A fault with code and message.
    Fault {
        /// Fault code.
        code: i32,
        /// Fault description.
        message: String,
    },
}

impl MethodResponse {
    /// Serializes to XML, written field by field into one buffer (the
    /// bytes an `Element` tree of it would write).
    pub fn to_xml(&self) -> String {
        match self {
            MethodResponse::Value(v) => {
                let mut w = XmlWriter::document(80 + v.len());
                w.markup("<methodResponse><params><param>")
                    .leaf("value", v)
                    .markup("</param></params></methodResponse>");
                w.finish()
            }
            MethodResponse::Fault { code, message } => {
                let mut w = XmlWriter::document(100 + message.len());
                w.markup("<methodResponse><fault>")
                    .leaf("faultCode", &code.to_string())
                    .leaf("faultString", message)
                    .markup("</fault></methodResponse>");
                w.finish()
            }
        }
    }

    /// Parses from XML, reading the fields in place: the first `value`
    /// of the first `param` of the first `params` of a `methodResponse`.
    /// A `fault` there is rare and is read from the DOM. The whole
    /// document must be well-formed.
    pub fn parse(xml: &str) -> Option<MethodResponse> {
        let mut r = XmlReader::new(xml);
        if r.root().ok()?.local_name() != "methodResponse" {
            return None;
        }
        let mut value = None;
        let mut fault = false;
        r.read_children(|r, tag| {
            match tag.local_name() {
                "fault" => fault = true,
                "params" if value.is_none() => {
                    let mut first = None;
                    let mut param_seen = false;
                    r.read_children(|r, param| {
                        if param.local_name() != "param" || param_seen {
                            return Ok(false);
                        }
                        param_seen = true;
                        first = read_first_value(r)?;
                        Ok(true)
                    })?;
                    value = Some(first);
                    return Ok(true);
                }
                _ => {}
            }
            Ok(false)
        })
        .ok()?;
        if fault {
            return Self::parse_fault(xml);
        }
        value.flatten().map(MethodResponse::Value)
    }

    /// Reads a response carrying a `fault` through the DOM.
    fn parse_fault(xml: &str) -> Option<MethodResponse> {
        let root = Element::parse(xml).ok()?;
        let fault = root.child("fault")?;
        Some(MethodResponse::Fault {
            code: fault.child("faultCode")?.text().parse().ok()?,
            message: fault.child("faultString")?.text(),
        })
    }
}

/// A service's self-description, served at `/service.xml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service name.
    pub name: String,
    /// Service kind keyed by the mapper's USDL lookup (`logger`,
    /// `weather`, …).
    pub kind: String,
    /// Operation names.
    pub operations: Vec<String>,
}

impl ServiceDescription {
    /// Serializes to XML, written field by field into one buffer (the
    /// bytes an `Element` tree of it would write).
    pub fn to_xml(&self) -> String {
        let ops: usize = self.operations.iter().map(|op| op.len() + 20).sum();
        let mut w = XmlWriter::document(40 + self.name.len() + self.kind.len() + ops);
        w.markup("<service")
            .attr("name", &self.name)
            .attr("kind", &self.kind);
        if self.operations.is_empty() {
            w.markup("/>");
        } else {
            w.markup(">");
            for op in &self.operations {
                w.markup("<operation").attr("name", op).markup("/>");
            }
            w.markup("</service>");
        }
        w.finish()
    }

    /// Parses from XML.
    pub fn parse(xml: &str) -> Option<ServiceDescription> {
        let root = Element::parse(xml).ok()?;
        if root.local_name() != "service" {
            return None;
        }
        Some(ServiceDescription {
            name: root.attr("name")?.to_owned(),
            kind: root.attr("kind")?.to_owned(),
            operations: root
                .children_named("operation")
                .filter_map(|o| o.attr("name").map(str::to_owned))
                .collect(),
        })
    }
}

/// An operation implementation.
pub type Operation = Box<dyn FnMut(&[String]) -> Result<String, String>>;

/// A web-service server process.
pub struct WsServer {
    description: ServiceDescription,
    port: u16,
    operations: HashMap<String, Operation>,
    /// Accepted connections; the server sends no request of its own.
    http: HttpConns<Infallible>,
}

impl std::fmt::Debug for WsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WsServer")
            .field("name", &self.description.name)
            .field("port", &self.port)
            .finish_non_exhaustive()
    }
}

impl WsServer {
    /// Creates a server for `kind` named `name` on `port`.
    pub fn new(name: &str, kind: &str, port: u16) -> WsServer {
        WsServer {
            description: ServiceDescription {
                name: name.to_owned(),
                kind: kind.to_owned(),
                operations: Vec::new(),
            },
            port,
            operations: HashMap::new(),
            http: HttpConns::new(),
        }
    }

    /// Registers an operation (builder style).
    pub fn with_operation(mut self, name: &str, op: Operation) -> WsServer {
        self.description.operations.push(name.to_owned());
        self.operations.insert(name.to_owned(), op);
        self
    }

    /// A log service matching the bundled `logger` USDL document:
    /// `append(entry)` and `tail()`, which returns the last
    /// [`LOG_TAIL`] entries. Older entries are dropped, so the log stays
    /// bounded however long the service runs.
    pub fn logger(name: &str, port: u16) -> WsServer {
        let log = std::rc::Rc::new(std::cell::RefCell::new(VecDeque::with_capacity(LOG_TAIL)));
        let log2 = std::rc::Rc::clone(&log);
        WsServer::new(name, "logger", port)
            .with_operation(
                "append",
                Box::new(move |params| {
                    let entry = params.first().map_or("", String::as_str);
                    let mut log = log.borrow_mut();
                    // A full log reuses its oldest entry's buffer.
                    let mut slot = if log.len() == LOG_TAIL {
                        log.pop_front().unwrap_or_default()
                    } else {
                        String::new()
                    };
                    slot.clear();
                    slot.push_str(entry);
                    log.push_back(slot);
                    Ok("ok".to_owned())
                }),
            )
            .with_operation(
                "tail",
                Box::new(move |_| {
                    let entries = log2.borrow();
                    Ok(entries
                        .iter()
                        .map(String::as_str)
                        .collect::<Vec<_>>()
                        .join("\n"))
                }),
            )
    }

    /// A weather service matching the bundled `weather` USDL document.
    pub fn weather(name: &str, port: u16) -> WsServer {
        let location = std::rc::Rc::new(std::cell::RefCell::new("atlanta".to_owned()));
        let location2 = std::rc::Rc::clone(&location);
        WsServer::new(name, "weather", port)
            .with_operation(
                "current",
                Box::new(move |_| Ok(format!("sunny in {} at 24C", location.borrow()))),
            )
            .with_operation(
                "locate",
                Box::new(move |params| {
                    let loc = params
                        .first()
                        .cloned()
                        .ok_or_else(|| "missing location".to_owned())?;
                    *location2.borrow_mut() = loc;
                    Ok("ok".to_owned())
                }),
            )
    }
}

impl Process for WsServer {
    fn name(&self) -> &str {
        "ws-server"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).expect("ws port free");
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        for event in self.http.on_stream(ctx, stream, event) {
            let HttpEvent::Request { request, .. } = event;
            ctx.busy(WS_XML_COST);
            let response = match (request.method(), request.path()) {
                ("GET", "/service.xml") => HttpResponse::xml(self.description.to_xml()),
                ("POST", "/rpc") => {
                    let call = std::str::from_utf8(&request.body)
                        .ok()
                        .and_then(MethodCall::parse);
                    let resp = match call {
                        Some(call) => match self.operations.get_mut(&call.method) {
                            Some(op) => match op(&call.params) {
                                Ok(v) => MethodResponse::Value(v),
                                Err(m) => MethodResponse::Fault {
                                    code: 500,
                                    message: m,
                                },
                            },
                            None => MethodResponse::Fault {
                                code: 404,
                                message: format!("no operation {}", call.method),
                            },
                        },
                        None => MethodResponse::Fault {
                            code: 400,
                            message: "malformed call".to_owned(),
                        },
                    };
                    ctx.bump(simnet::metric_id!("ws.calls"), 1);
                    HttpResponse::xml(resp.to_xml())
                }
                _ => HttpResponse::new(404),
            };
            let _ = ctx.stream_send(stream, response.to_bytes());
            ctx.stream_close(stream);
        }
    }
}

/// Client-side events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsEvent {
    /// A description fetch completed.
    Description {
        /// Where it came from.
        location: Addr,
        /// The description.
        desc: ServiceDescription,
    },
    /// A call completed.
    CallResult {
        /// Correlation id.
        call_id: u64,
        /// The response.
        response: MethodResponse,
    },
    /// A request failed at the transport level or its response was
    /// unreadable.
    Failed(WsRequest),
}

/// A request the client sends; each ends in one [`WsEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsRequest {
    /// A description fetch from `location`.
    Describe {
        /// Where the description is fetched from.
        location: Addr,
    },
    /// A method call.
    Call {
        /// Correlation id passed to [`WsClient::call`].
        call_id: u64,
    },
}

/// The client engine for host processes (the uMiddle mapper, tests). A
/// request method that returns `Err` sent nothing (no route); any other
/// request ends in one event from [`WsClient::handle_stream`].
#[derive(Debug, Default)]
pub struct WsClient {
    http: HttpConns<WsRequest>,
}

impl WsClient {
    /// Creates a client.
    pub fn new() -> WsClient {
        WsClient::default()
    }

    /// Fetches `/service.xml` from a service.
    ///
    /// # Errors
    ///
    /// Returns the request when the connect fails at once.
    pub fn describe(&mut self, ctx: &mut Ctx<'_>, location: Addr) -> Result<(), WsRequest> {
        let request = HttpRequest::new("GET", "/service.xml").to_bytes();
        self.http
            .exchange(ctx, location, request, WsRequest::Describe { location })
    }

    /// Invokes an operation.
    ///
    /// # Errors
    ///
    /// Returns the request when the connect fails at once.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        location: Addr,
        call: &MethodCall,
        call_id: u64,
    ) -> Result<(), WsRequest> {
        ctx.busy(WS_XML_COST);
        let request = HttpRequest::new("POST", "/rpc")
            .with_body(call.to_xml().into_bytes())
            .to_bytes();
        self.http
            .exchange(ctx, location, request, WsRequest::Call { call_id })
    }

    /// Feeds a stream event; returns completed operations.
    pub fn handle_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: StreamEvent,
    ) -> Vec<WsEvent> {
        let mut out = Vec::new();
        for event in self.http.on_stream(ctx, stream, event) {
            let event = match event {
                HttpEvent::Response(request, response) => {
                    ctx.busy(WS_XML_COST);
                    let text = response
                        .as_ref()
                        .and_then(|r| std::str::from_utf8(&r.body).ok());
                    let done = match request {
                        WsRequest::Describe { location } => text
                            .and_then(ServiceDescription::parse)
                            .map(|desc| WsEvent::Description { location, desc }),
                        WsRequest::Call { call_id } => text
                            .and_then(MethodResponse::parse)
                            .map(|response| WsEvent::CallResult { call_id, response }),
                    };
                    done.unwrap_or(WsEvent::Failed(request))
                }
                HttpEvent::Failed(request) => WsEvent::Failed(request),
                // The client accepts no connections.
                HttpEvent::Request { .. } => continue,
            };
            out.push(event);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn call_and_response_round_trip() {
        let call = MethodCall::new("append", vec!["hello".to_owned(), "x<y".to_owned()]);
        assert_eq!(MethodCall::parse(&call.to_xml()), Some(call));
        for r in [
            MethodResponse::Value("ok".to_owned()),
            MethodResponse::Fault {
                code: 404,
                message: "no & such".to_owned(),
            },
        ] {
            assert_eq!(MethodResponse::parse(&r.to_xml()), Some(r));
        }
    }

    #[test]
    fn description_round_trip() {
        let d = ServiceDescription {
            name: "Event Log".to_owned(),
            kind: "logger".to_owned(),
            operations: vec!["append".to_owned(), "tail".to_owned()],
        };
        assert_eq!(ServiceDescription::parse(&d.to_xml()), Some(d));
    }

    struct Driver {
        client: WsClient,
        target: Addr,
        results: Rc<RefCell<Vec<WsEvent>>>,
        step: u32,
    }
    impl Process for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert_eq!(self.client.describe(ctx, self.target), Ok(()));
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
            for ev in self.client.handle_stream(ctx, s, e) {
                match &ev {
                    WsEvent::Description { location, .. } => {
                        self.step = 1;
                        let call = MethodCall::new("append", vec!["entry one".to_owned()]);
                        let _ = self.client.call(ctx, *location, &call, 1);
                    }
                    WsEvent::CallResult { call_id: 1, .. } => {
                        let call = MethodCall::new("tail", vec![]);
                        let _ = self.client.call(ctx, self.target, &call, 2);
                    }
                    _ => {}
                }
                self.results.borrow_mut().push(ev);
            }
        }
    }

    #[test]
    fn describe_append_tail_cycle() {
        let mut world = World::new(61);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let s_node = world.add_node("server");
        let c_node = world.add_node("client");
        world.attach(s_node, hub).unwrap();
        world.attach(c_node, hub).unwrap();
        world.add_process(s_node, Box::new(WsServer::logger("Event Log", 8080)));
        let results = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            c_node,
            Box::new(Driver {
                client: WsClient::new(),
                target: Addr::new(s_node, 8080),
                results: Rc::clone(&results),
                step: 0,
            }),
        );
        world.run_until(SimTime::from_secs(5));
        let results = results.borrow();
        assert!(
            matches!(results.first(), Some(WsEvent::Description { desc, .. }) if desc.kind == "logger")
        );
        assert!(matches!(
            results.get(1),
            Some(WsEvent::CallResult {
                call_id: 1,
                response: MethodResponse::Value(_)
            })
        ));
        match results.get(2) {
            Some(WsEvent::CallResult {
                call_id: 2,
                response: MethodResponse::Value(v),
            }) => assert_eq!(v, "entry one"),
            other => panic!("expected tail result, got {other:?}"),
        }
    }

    #[test]
    fn logger_tail_returns_the_last_ten_entries() {
        let mut server = WsServer::logger("Event Log", 8080);
        for i in 1..=25 {
            let append = server.operations.get_mut("append").unwrap();
            assert_eq!(append(&[format!("entry {i}")]).unwrap(), "ok");
        }
        let tail = server.operations.get_mut("tail").unwrap()(&[]).unwrap();
        let want: Vec<String> = (16..=25).map(|i| format!("entry {i}")).collect();
        assert_eq!(tail, want.join("\n"));
    }

    #[test]
    fn unknown_operation_faults() {
        let mut world = World::new(62);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let s_node = world.add_node("server");
        let c_node = world.add_node("client");
        world.attach(s_node, hub).unwrap();
        world.attach(c_node, hub).unwrap();
        world.add_process(s_node, Box::new(WsServer::weather("Weather", 8080)));
        let results = Rc::new(RefCell::new(Vec::new()));
        struct One {
            client: WsClient,
            target: Addr,
            results: Rc<RefCell<Vec<WsEvent>>>,
        }
        impl Process for One {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let call = MethodCall::new("explode", vec![]);
                assert_eq!(self.client.call(ctx, self.target, &call, 5), Ok(()));
            }
            fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
                self.results
                    .borrow_mut()
                    .extend(self.client.handle_stream(ctx, s, e));
            }
        }
        world.add_process(
            c_node,
            Box::new(One {
                client: WsClient::new(),
                target: Addr::new(s_node, 8080),
                results: Rc::clone(&results),
            }),
        );
        world.run_until(SimTime::from_secs(3));
        assert!(matches!(
            results.borrow().first(),
            Some(WsEvent::CallResult {
                call_id: 5,
                response: MethodResponse::Fault { code: 404, .. }
            })
        ));
    }
}
