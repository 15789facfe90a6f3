//! The RMI registry, object servers, and the client engine.

use std::collections::HashMap;

use simnet::{Addr, Ctx, IntMap, NodeId, Process, StreamEvent, StreamId};

use crate::calib;
use crate::marshal::JavaValue;
use crate::protocol::{FrameAccumulator, RmiFrame};

/// The registry's well-known stream port.
pub const REGISTRY_PORT: u16 = 1099;

/// A remote method implementation.
pub type MethodHandler = Box<dyn FnMut(&str, &[JavaValue]) -> Result<JavaValue, String>>;

/// The RMI registry process (`rmiregistry`): name → endpoint bindings.
#[derive(Default)]
pub struct RmiRegistry {
    bindings: HashMap<String, (u32, u16)>,
    conns: IntMap<StreamId, FrameAccumulator>,
}

impl std::fmt::Debug for RmiRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiRegistry")
            .field("bindings", &self.bindings.len())
            .finish_non_exhaustive()
    }
}

impl RmiRegistry {
    /// Creates an empty registry.
    pub fn new() -> RmiRegistry {
        RmiRegistry::default()
    }
}

impl Process for RmiRegistry {
    fn name(&self) -> &str {
        "rmi-registry"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(REGISTRY_PORT).expect("registry port free");
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        match event {
            StreamEvent::Accepted { .. } => {
                self.conns.insert(stream, FrameAccumulator::new());
            }
            StreamEvent::Data(data) => {
                let Some(acc) = self.conns.get_mut(&stream) else {
                    return;
                };
                acc.push_payload(data);
                loop {
                    let frame = match self.conns.get_mut(&stream).map(|a| a.next()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            ctx.stream_close(stream);
                            break;
                        }
                    };
                    ctx.busy(calib::REGISTRY_PROCESS);
                    match frame {
                        RmiFrame::Bind { name, node, port } => {
                            self.bindings.insert(name, (node, port));
                            ctx.bump("rmi.binds", 1);
                        }
                        RmiFrame::Lookup { call_id, name } => {
                            let reply = match self.bindings.get(&name) {
                                Some(&(node, port)) => RmiFrame::LookupResult {
                                    call_id,
                                    node,
                                    port,
                                },
                                None => RmiFrame::Exception {
                                    call_id,
                                    message: format!("java.rmi.NotBoundException: {name}"),
                                },
                            };
                            let _ = ctx.stream_send(stream, reply.encode_framed());
                        }
                        RmiFrame::Ping => {
                            let _ = ctx.stream_send(stream, RmiFrame::PingAck.encode_framed());
                        }
                        _ => {}
                    }
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                self.conns.remove(&stream);
            }
            _ => {}
        }
    }
}

/// A server hosting one named remote object.
pub struct RmiObjectServer {
    object_name: String,
    port: u16,
    registry: Addr,
    handler: MethodHandler,
    conns: IntMap<StreamId, FrameAccumulator>,
    registry_stream: Option<StreamId>,
}

impl std::fmt::Debug for RmiObjectServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmiObjectServer")
            .field("object_name", &self.object_name)
            .field("port", &self.port)
            .finish_non_exhaustive()
    }
}

impl RmiObjectServer {
    /// Creates a server for `object_name`, serving on `port` and binding
    /// itself at the registry.
    pub fn new(
        object_name: &str,
        port: u16,
        registry: Addr,
        handler: MethodHandler,
    ) -> RmiObjectServer {
        RmiObjectServer {
            object_name: object_name.to_owned(),
            port,
            registry,
            handler,
            conns: IntMap::default(),
            registry_stream: None,
        }
    }

    /// An echo service: `echo(x)` returns its argument — the paper's §5.3
    /// benchmark endpoint.
    pub fn echo(port: u16, registry: Addr) -> RmiObjectServer {
        RmiObjectServer::new(
            "EchoService",
            port,
            registry,
            Box::new(|method, args| {
                if method == "echo" {
                    Ok(args.first().cloned().unwrap_or(JavaValue::Null))
                } else {
                    Err(format!("java.rmi.ServerException: no method {method}"))
                }
            }),
        )
    }

    /// A consuming variant of the echo service: `echo(x)` acknowledges
    /// with the received length instead of returning the payload. Used
    /// for one-way delivery measurements (the RMI-MB bridged test), where
    /// echoing the full payload back would triple the medium load.
    pub fn echo_ack(port: u16, registry: Addr) -> RmiObjectServer {
        RmiObjectServer::new(
            "EchoService",
            port,
            registry,
            Box::new(|method, args| {
                if method == "echo" {
                    let len = match args.first() {
                        Some(JavaValue::Bytes(b)) => b.len() as i64,
                        _ => 0,
                    };
                    Ok(JavaValue::Long(len))
                } else {
                    Err(format!("java.rmi.ServerException: no method {method}"))
                }
            }),
        )
    }
}

impl Process for RmiObjectServer {
    fn name(&self) -> &str {
        "rmi-object-server"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).expect("object port free");
        if let Ok(stream) = ctx.connect(self.registry) {
            self.registry_stream = Some(stream);
        }
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if Some(stream) == self.registry_stream {
            if let StreamEvent::Connected = event {
                let bind = RmiFrame::Bind {
                    name: self.object_name.clone(),
                    node: ctx.node().index() as u32,
                    port: self.port,
                };
                let _ = ctx.stream_send(stream, bind.encode_framed());
                ctx.stream_close(stream);
            }
            return;
        }
        match event {
            StreamEvent::Accepted { .. } => {
                self.conns.insert(stream, FrameAccumulator::new());
            }
            StreamEvent::Data(data) => {
                let Some(acc) = self.conns.get_mut(&stream) else {
                    return;
                };
                acc.push_payload(data);
                loop {
                    let frame = match self.conns.get_mut(&stream).map(|a| a.next()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            ctx.stream_close(stream);
                            break;
                        }
                    };
                    match frame {
                        RmiFrame::Ping => {
                            let _ = ctx.stream_send(stream, RmiFrame::PingAck.encode_framed());
                        }
                        RmiFrame::Call {
                            call_id,
                            object,
                            method,
                            args,
                        } => {
                            // Unmarshal cost: proportional to argument size.
                            let arg_bytes: usize = args.iter().map(JavaValue::marshaled_len).sum();
                            ctx.busy(calib::marshal_cost(arg_bytes));
                            let reply = if object != self.object_name {
                                RmiFrame::Exception {
                                    call_id,
                                    message: format!("java.rmi.NoSuchObjectException: {object}"),
                                }
                            } else {
                                match (self.handler)(&method, &args) {
                                    Ok(result) => {
                                        ctx.busy(calib::marshal_cost(result.marshaled_len()));
                                        RmiFrame::Return { call_id, result }
                                    }
                                    Err(message) => RmiFrame::Exception { call_id, message },
                                }
                            };
                            ctx.bump(simnet::metric_id!("rmi.calls"), 1);
                            let _ = ctx.stream_send(stream, reply.encode_framed());
                        }
                        _ => {}
                    }
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                self.conns.remove(&stream);
            }
            _ => {}
        }
    }
}

/// Client-side call outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum RmiClientEvent {
    /// A lookup resolved.
    Resolved {
        /// Correlation id.
        call_id: u64,
        /// The object server's address.
        addr: Addr,
    },
    /// A call returned.
    Returned {
        /// Correlation id.
        call_id: u64,
        /// The result value.
        result: JavaValue,
    },
    /// A call or lookup raised.
    Raised {
        /// Correlation id.
        call_id: u64,
        /// Exception message.
        message: String,
    },
    /// Transport-level failure.
    Failed {
        /// Correlation id.
        call_id: u64,
    },
}

/// One pending operation awaiting a reply frame.
#[derive(Debug)]
enum ClientOp {
    Lookup,
    Call,
}

/// A persistent JRMP-style connection to one endpoint.
struct Conn {
    stream: StreamId,
    up: bool,
    /// DGC handshake completed.
    pinged: bool,
    /// Frames queued until the connection is ready.
    queue: Vec<RmiFrame>,
    acc: FrameAccumulator,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("stream", &self.stream)
            .field("up", &self.up)
            .field("pinged", &self.pinged)
            .finish_non_exhaustive()
    }
}

/// The client engine embedded in host processes (the uMiddle RMI mapper,
/// benchmark drivers). Connections are persistent and pipelined, like
/// JRMP: one stream per endpoint, a DGC ping handshake when it opens,
/// then calls multiplexed by id.
#[derive(Debug, Default)]
pub struct RmiClient {
    conns: IntMap<Addr, Conn>,
    by_stream: IntMap<StreamId, Addr>,
    ops: IntMap<u64, ClientOp>,
}

impl RmiClient {
    /// Creates a client.
    pub fn new() -> RmiClient {
        RmiClient::default()
    }

    /// Number of in-flight operations.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    fn send_or_queue(&mut self, ctx: &mut Ctx<'_>, addr: Addr, frame: RmiFrame) {
        if !self.conns.contains_key(&addr) {
            match ctx.connect(addr) {
                Ok(stream) => {
                    self.by_stream.insert(stream, addr);
                    self.conns.insert(
                        addr,
                        Conn {
                            stream,
                            up: false,
                            pinged: false,
                            queue: vec![frame],
                            acc: FrameAccumulator::new(),
                        },
                    );
                }
                Err(_) => {
                    // Unroutable: fail every queued op immediately is
                    // handled by the Closed path; here just drop.
                }
            }
            return;
        }
        let conn = self.conns.get_mut(&addr).expect("checked");
        if conn.up && conn.pinged {
            let _ = ctx.stream_send(conn.stream, frame.encode_framed());
        } else {
            conn.queue.push(frame);
        }
    }

    /// Starts a registry lookup.
    pub fn lookup(&mut self, ctx: &mut Ctx<'_>, registry: Addr, name: &str, call_id: u64) {
        self.ops.insert(call_id, ClientOp::Lookup);
        self.send_or_queue(
            ctx,
            registry,
            RmiFrame::Lookup {
                call_id,
                name: name.to_owned(),
            },
        );
    }

    /// Starts a remote call. On a connection that is up and past its
    /// DGC handshake the call is encoded straight from the borrowed
    /// names and arguments; only a call that must wait for the
    /// connection is copied into a queued frame.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        addr: Addr,
        object: &str,
        method: &str,
        args: &[JavaValue],
        call_id: u64,
    ) {
        // Marshal cost on the caller.
        let arg_bytes: usize = args.iter().map(JavaValue::marshaled_len).sum();
        ctx.busy(calib::marshal_cost(arg_bytes));
        self.ops.insert(call_id, ClientOp::Call);
        match self.conns.get(&addr) {
            Some(conn) if conn.up && conn.pinged => {
                let frame = RmiFrame::encode_call_framed(call_id, object, method, args);
                let _ = ctx.stream_send(conn.stream, frame);
            }
            _ => self.send_or_queue(
                ctx,
                addr,
                RmiFrame::Call {
                    call_id,
                    object: object.to_owned(),
                    method: method.to_owned(),
                    args: args.to_vec(),
                },
            ),
        }
    }

    /// Feeds a stream event, appending the operations it completes to
    /// `out` (a buffer the caller reuses, so steady-state replies
    /// allocate nothing).
    pub fn handle_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: StreamId,
        event: StreamEvent,
        out: &mut Vec<RmiClientEvent>,
    ) {
        let Some(&addr) = self.by_stream.get(&stream) else {
            return;
        };
        match event {
            StreamEvent::Connected => {
                if let Some(conn) = self.conns.get_mut(&addr) {
                    conn.up = true;
                    // DGC handshake once per connection.
                    let _ = ctx.stream_send(stream, RmiFrame::Ping.encode_framed());
                }
            }
            StreamEvent::Data(data) => {
                let Some(conn) = self.conns.get_mut(&addr) else {
                    return;
                };
                conn.acc.push_payload(data);
                loop {
                    let frame = match self.conns.get_mut(&addr).map(|c| c.acc.next()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            self.fail_all(addr, out);
                            ctx.stream_close(stream);
                            break;
                        }
                    };
                    match frame {
                        RmiFrame::PingAck => {
                            let queued = {
                                let conn = self.conns.get_mut(&addr).expect("present");
                                conn.pinged = true;
                                std::mem::take(&mut conn.queue)
                            };
                            for f in queued {
                                let _ = ctx.stream_send(stream, f.encode_framed());
                            }
                        }
                        RmiFrame::Return { call_id, result } => {
                            ctx.busy(calib::marshal_cost(result.marshaled_len()));
                            self.ops.remove(&call_id);
                            out.push(RmiClientEvent::Returned { call_id, result });
                        }
                        RmiFrame::Exception { call_id, message } => {
                            self.ops.remove(&call_id);
                            out.push(RmiClientEvent::Raised { call_id, message });
                        }
                        RmiFrame::LookupResult {
                            call_id,
                            node,
                            port,
                        } => {
                            self.ops.remove(&call_id);
                            out.push(RmiClientEvent::Resolved {
                                call_id,
                                addr: Addr::new(NodeId::from_index(node as usize), port),
                            });
                        }
                        _ => {}
                    }
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                self.fail_all(addr, out);
            }
            _ => {}
        }
    }

    /// Fails every op associated with a dead connection, appending the
    /// failures to `out`.
    fn fail_all(&mut self, addr: Addr, out: &mut Vec<RmiClientEvent>) {
        let Some(conn) = self.conns.remove(&addr) else {
            return;
        };
        self.by_stream.remove(&conn.stream);
        // All outstanding ops fail: we cannot tell which belonged to this
        // connection without extra bookkeeping, so fail the queued ones
        // (the common case: the whole endpoint died).
        for f in &conn.queue {
            if let RmiFrame::Call { call_id, .. } | RmiFrame::Lookup { call_id, .. } = f {
                self.ops.remove(call_id);
                out.push(RmiClientEvent::Failed { call_id: *call_id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SegmentConfig, SimTime, World};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Looks up the echo service, calls it, records the result.
    struct Driver {
        client: RmiClient,
        registry: Addr,
        results: Rc<RefCell<Vec<RmiClientEvent>>>,
    }
    impl Process for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.client.lookup(ctx, self.registry, "EchoService", 1);
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
            let mut events = Vec::new();
            self.client.handle_stream(ctx, s, e, &mut events);
            for ev in events {
                if let RmiClientEvent::Resolved { addr, .. } = &ev {
                    self.client.call(
                        ctx,
                        *addr,
                        "EchoService",
                        "echo",
                        &[JavaValue::Bytes(vec![9; 1400].into())],
                        2,
                    );
                }
                self.results.borrow_mut().push(ev);
            }
        }
    }

    #[test]
    fn lookup_and_echo_call() {
        let mut world = World::new(31);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let reg_node = world.add_node("registry");
        let srv_node = world.add_node("server");
        let cli_node = world.add_node("client");
        for n in [reg_node, srv_node, cli_node] {
            world.attach(n, hub).unwrap();
        }
        world.add_process(reg_node, Box::new(RmiRegistry::new()));
        let registry = Addr::new(reg_node, REGISTRY_PORT);
        world.add_process(srv_node, Box::new(RmiObjectServer::echo(2099, registry)));
        let results = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            cli_node,
            Box::new(Driver {
                client: RmiClient::new(),
                registry,
                results: Rc::clone(&results),
            }),
        );
        world.run_until(SimTime::from_secs(5));
        let results = results.borrow();
        assert!(matches!(
            results.first(),
            Some(RmiClientEvent::Resolved { call_id: 1, .. })
        ));
        match results.get(1) {
            Some(RmiClientEvent::Returned { call_id: 2, result }) => {
                assert_eq!(*result, JavaValue::Bytes(vec![9; 1400].into()));
            }
            other => panic!("expected echo return, got {other:?}"),
        }
    }

    #[test]
    fn lookup_of_unbound_name_raises() {
        let mut world = World::new(32);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let reg_node = world.add_node("registry");
        let cli_node = world.add_node("client");
        world.attach(reg_node, hub).unwrap();
        world.attach(cli_node, hub).unwrap();
        world.add_process(reg_node, Box::new(RmiRegistry::new()));
        let results = Rc::new(RefCell::new(Vec::new()));
        struct Only {
            client: RmiClient,
            registry: Addr,
            results: Rc<RefCell<Vec<RmiClientEvent>>>,
        }
        impl Process for Only {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.client.lookup(ctx, self.registry, "Ghost", 7);
            }
            fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
                let mut results = self.results.borrow_mut();
                self.client.handle_stream(ctx, s, e, &mut results);
            }
        }
        world.add_process(
            cli_node,
            Box::new(Only {
                client: RmiClient::new(),
                registry: Addr::new(reg_node, REGISTRY_PORT),
                results: Rc::clone(&results),
            }),
        );
        world.run_until(SimTime::from_secs(3));
        assert!(matches!(
            results.borrow().first(),
            Some(RmiClientEvent::Raised { call_id: 7, .. })
        ));
    }
}
