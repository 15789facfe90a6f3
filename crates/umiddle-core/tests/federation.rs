//! Integration tests for a federation of uMiddle runtimes: directory
//! convergence, cross-runtime message paths, dynamic device binding, QoS
//! and failure injection.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{
    Ctx, LocalMessage, NodeId, ProcId, Process, SegmentConfig, SimDuration, SimTime, World,
};
use umiddle_core::{
    ack_input_done, handle_input_done_echo, Direction, DirectoryEvent, PortKind, PortRef,
    QosPolicy, Query, RuntimeClient, RuntimeConfig, RuntimeEvent, RuntimeId, Shape, TranslatorId,
    TranslatorProfile, UMessage, UmiddleRuntime,
};

/// A native uMiddle service: registers one translator, records inputs,
/// reports directory events, and can emit messages on timers.
struct TestService {
    name: String,
    shape: Shape,
    runtime: ProcId,
    client: Option<RuntimeClient>,
    id: Rc<RefCell<Option<TranslatorId>>>,
    received: Rc<RefCell<Vec<(String, UMessage)>>>,
    directory_events: Rc<RefCell<Vec<DirectoryEvent>>>,
    /// `(delay, port, message)` emissions scheduled at start.
    emit_at: Vec<(SimDuration, String, UMessage)>,
    /// Processing cost per input (QoS tests).
    input_cost: SimDuration,
    subscribe: Option<Query>,
}

impl TestService {
    fn new(name: &str, shape: Shape, runtime: ProcId) -> TestService {
        TestService {
            name: name.to_owned(),
            shape,
            runtime,
            client: None,
            id: Rc::new(RefCell::new(None)),
            received: Rc::new(RefCell::new(Vec::new())),
            directory_events: Rc::new(RefCell::new(Vec::new())),
            emit_at: Vec::new(),
            input_cost: SimDuration::ZERO,
            subscribe: None,
        }
    }
}

impl Process for TestService {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut client = RuntimeClient::new(self.runtime);
        let placeholder = TranslatorId::new(RuntimeId(u32::MAX), 0);
        let profile = TranslatorProfile::builder(placeholder, self.name.clone())
            .shape(self.shape.clone())
            .build();
        let me = ctx.me();
        client.register(ctx, profile, me);
        if let Some(q) = self.subscribe.clone() {
            client.add_listener(ctx, q);
        }
        self.client = Some(client);
        for (i, (delay, _, _)) in self.emit_at.iter().enumerate() {
            ctx.set_timer(*delay, i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some((_, port, msg)) = self.emit_at.get(token as usize).cloned() else {
            return;
        };
        let Some(id) = *self.id.borrow() else { return };
        self.client
            .as_ref()
            .expect("client set in on_start")
            .output(ctx, id, port, msg);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if handle_input_done_echo(ctx, &msg) {
            return;
        }
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Registered { translator, .. } => {
                *self.id.borrow_mut() = Some(translator);
            }
            RuntimeEvent::Input {
                translator,
                port,
                msg,
                connection,
            } => {
                self.received.borrow_mut().push((port.to_string(), msg));
                if !self.input_cost.is_zero() {
                    ctx.busy(self.input_cost);
                }
                ack_input_done(ctx, self.runtime, connection, translator);
            }
            RuntimeEvent::InputBatch { inputs } => {
                for d in inputs {
                    self.received.borrow_mut().push((d.port.to_string(), d.msg));
                    if !self.input_cost.is_zero() {
                        ctx.busy(self.input_cost);
                    }
                    ack_input_done(ctx, self.runtime, d.connection, d.translator);
                }
            }
            RuntimeEvent::Directory(ev) => {
                self.directory_events.borrow_mut().push(ev);
            }
            _ => {}
        }
    }
}

/// An application process that waits for named translators to appear in
/// the directory and then issues one connect.
struct Connector {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    src_name: String,
    src_port: String,
    target: ConnectorTarget,
    qos: QosPolicy,
    src: Option<PortRef>,
    dst: Option<PortRef>,
    outcome: Rc<RefCell<Option<Result<(), String>>>>,
    bound: Rc<RefCell<Vec<PortRef>>>,
    connected_once: bool,
}

enum ConnectorTarget {
    Named(String, String),
    Template(Query),
}

impl Connector {
    fn new(runtime: ProcId, src_name: &str, src_port: &str, target: ConnectorTarget) -> Connector {
        Connector {
            runtime,
            client: None,
            src_name: src_name.to_owned(),
            src_port: src_port.to_owned(),
            target,
            qos: QosPolicy::unbounded(),
            src: None,
            dst: None,
            outcome: Rc::new(RefCell::new(None)),
            bound: Rc::new(RefCell::new(Vec::new())),
            connected_once: false,
        }
    }

    fn try_connect(&mut self, ctx: &mut Ctx<'_>) {
        if self.connected_once {
            return;
        }
        let Some(src) = self.src else { return };
        let client = self.client.as_mut().expect("client set");
        match &self.target {
            ConnectorTarget::Named(_, _) => {
                let Some(dst) = self.dst else { return };
                self.connected_once = true;
                client.connect_ports(ctx, src, dst, self.qos.clone());
            }
            ConnectorTarget::Template(q) => {
                self.connected_once = true;
                client.connect_query(ctx, src, q.clone(), self.qos.clone());
            }
        }
    }
}

impl Process for Connector {
    fn name(&self) -> &str {
        "connector"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::All);
        self.client = Some(client);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                if profile.name() == self.src_name {
                    self.src = Some(PortRef::new(profile.id(), self.src_port.clone()));
                }
                if let ConnectorTarget::Named(dst_name, dst_port) = &self.target {
                    if profile.name() == *dst_name {
                        self.dst = Some(PortRef::new(profile.id(), dst_port.clone()));
                    }
                }
                self.try_connect(ctx);
            }
            RuntimeEvent::Connected { .. } => {
                *self.outcome.borrow_mut() = Some(Ok(()));
            }
            RuntimeEvent::ConnectFailed { reason, .. } => {
                *self.outcome.borrow_mut() = Some(Err(reason));
            }
            RuntimeEvent::PathBound { dst, .. } => {
                self.bound.borrow_mut().push(dst);
            }
            _ => {}
        }
    }
}

struct Testbed {
    world: World,
    hub: simnet::SegmentId,
    nodes: Vec<NodeId>,
    runtimes: Vec<ProcId>,
}

/// N nodes on one 10 Mbps Ethernet hub, each with its own runtime.
fn testbed(n: usize) -> Testbed {
    let mut world = World::new(7);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let mut nodes = Vec::new();
    let mut runtimes = Vec::new();
    for i in 0..n {
        let node = world.add_node(format!("host{i}"));
        world.attach(node, hub).unwrap();
        let rt = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(i as u32)));
        let proc = world.add_process(node, Box::new(rt));
        nodes.push(node);
        runtimes.push(proc);
    }
    Testbed {
        world,
        hub,
        nodes,
        runtimes,
    }
}

fn jpeg(bytes: usize) -> UMessage {
    UMessage::new("image/jpeg".parse().unwrap(), vec![0xd8; bytes])
}

fn jpeg_source_shape() -> Shape {
    Shape::builder()
        .digital(
            "image-out",
            Direction::Output,
            "image/jpeg".parse().unwrap(),
        )
        .build()
        .unwrap()
}

fn jpeg_sink_shape() -> Shape {
    Shape::builder()
        .digital("media-in", Direction::Input, "image/*".parse().unwrap())
        .build()
        .unwrap()
}

#[test]
fn cross_runtime_static_path_delivers_messages() {
    let mut tb = testbed(2);
    // Camera on host0 emits three frames well after the wiring settles.
    let mut camera = TestService::new("camera", jpeg_source_shape(), tb.runtimes[0]);
    for i in 0..3u64 {
        camera.emit_at.push((
            SimDuration::from_secs(3) + SimDuration::from_millis(100 * i),
            "image-out".to_owned(),
            jpeg(2048),
        ));
    }
    let tv = TestService::new("tv", jpeg_sink_shape(), tb.runtimes[1]);
    let tv_received = Rc::clone(&tv.received);
    tb.world.add_process(tb.nodes[0], Box::new(camera));
    tb.world.add_process(tb.nodes[1], Box::new(tv));

    let connector = Connector::new(
        tb.runtimes[0],
        "camera",
        "image-out",
        ConnectorTarget::Named("tv".to_owned(), "media-in".to_owned()),
    );
    let outcome = Rc::clone(&connector.outcome);
    tb.world.add_process(tb.nodes[0], Box::new(connector));

    tb.world.run_until(SimTime::from_secs(6));
    assert_eq!(*outcome.borrow(), Some(Ok(())));
    let got = tv_received.borrow();
    assert_eq!(got.len(), 3, "TV received all frames: {}", got.len());
    assert!(got
        .iter()
        .all(|(port, m)| port == "media-in" && m.body().len() == 2048));
}

#[test]
fn dynamic_binding_adapts_to_late_arrivals() {
    // Template connection created before any matching target exists; the
    // TV appears later, the path binds, and subsequent frames flow.
    let mut tb = testbed(2);
    let mut camera = TestService::new("camera", jpeg_source_shape(), tb.runtimes[0]);
    // One frame before the TV exists (dropped: no path yet), several after.
    camera.emit_at.push((
        SimDuration::from_secs(2),
        "image-out".to_owned(),
        jpeg(1024),
    ));
    for i in 0..3u64 {
        camera.emit_at.push((
            SimDuration::from_secs(10) + SimDuration::from_millis(50 * i),
            "image-out".to_owned(),
            jpeg(1024),
        ));
    }
    tb.world.add_process(tb.nodes[0], Box::new(camera));

    let mut connector = Connector::new(
        tb.runtimes[0],
        "camera",
        "image-out",
        ConnectorTarget::Template(Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().unwrap()),
        )),
    );
    connector.qos = QosPolicy::unbounded();
    let outcome = Rc::clone(&connector.outcome);
    let bound = Rc::clone(&connector.bound);
    tb.world.add_process(tb.nodes[0], Box::new(connector));

    tb.world.run_until(SimTime::from_secs(4));
    assert_eq!(*outcome.borrow(), Some(Ok(())));
    assert!(bound.borrow().is_empty(), "no binding before the TV exists");

    // TV arrives on the second runtime.
    let tv = TestService::new("tv", jpeg_sink_shape(), tb.runtimes[1]);
    let tv_received = Rc::clone(&tv.received);
    tb.world.add_process(tb.nodes[1], Box::new(tv));

    tb.world.run_until(SimTime::from_secs(14));
    assert_eq!(bound.borrow().len(), 1, "path bound adaptively");
    assert_eq!(bound.borrow()[0].port, "media-in");
    assert_eq!(tv_received.borrow().len(), 3, "post-binding frames flowed");
}

#[test]
fn query_connection_fans_out_to_multiple_sinks() {
    let mut tb = testbed(3);
    let mut camera = TestService::new("camera", jpeg_source_shape(), tb.runtimes[0]);
    camera
        .emit_at
        .push((SimDuration::from_secs(4), "image-out".to_owned(), jpeg(512)));
    tb.world.add_process(tb.nodes[0], Box::new(camera));

    let tv1 = TestService::new("tv1", jpeg_sink_shape(), tb.runtimes[1]);
    let tv2 = TestService::new("tv2", jpeg_sink_shape(), tb.runtimes[2]);
    let r1 = Rc::clone(&tv1.received);
    let r2 = Rc::clone(&tv2.received);
    tb.world.add_process(tb.nodes[1], Box::new(tv1));
    tb.world.add_process(tb.nodes[2], Box::new(tv2));

    let connector = Connector::new(
        tb.runtimes[0],
        "camera",
        "image-out",
        ConnectorTarget::Template(Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().unwrap()),
        )),
    );
    let bound = Rc::clone(&connector.bound);
    tb.world.add_process(tb.nodes[0], Box::new(connector));

    tb.world.run_until(SimTime::from_secs(8));
    assert_eq!(bound.borrow().len(), 2, "bound to both TVs");
    assert_eq!(r1.borrow().len(), 1);
    assert_eq!(r2.borrow().len(), 1);
}

#[test]
fn chained_paths_button_camera_tv() {
    // button.press -> camera.shutter (local), camera.image-out ->
    // tv.media-in (remote): two chained message paths.
    let mut tb = testbed(2);

    struct Camera {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        id: Option<TranslatorId>,
    }
    impl Process for Camera {
        fn name(&self) -> &str {
            "camera"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let shape = Shape::builder()
                .digital("shutter", Direction::Input, "text/plain".parse().unwrap())
                .digital(
                    "image-out",
                    Direction::Output,
                    "image/jpeg".parse().unwrap(),
                )
                .build()
                .unwrap();
            let mut client = RuntimeClient::new(self.runtime);
            let profile =
                TranslatorProfile::builder(TranslatorId::new(RuntimeId(u32::MAX), 0), "camera")
                    .shape(shape)
                    .build();
            let me = ctx.me();
            client.register(ctx, profile, me);
            self.client = Some(client);
        }
        fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            if handle_input_done_echo(ctx, &msg) {
                return;
            }
            let Ok(event) = msg.downcast::<RuntimeEvent>() else {
                return;
            };
            match *event {
                RuntimeEvent::Registered { translator, .. } => self.id = Some(translator),
                RuntimeEvent::Input {
                    translator,
                    port,
                    connection,
                    ..
                } => {
                    if port == "shutter" {
                        self.client.as_ref().expect("set").output(
                            ctx,
                            translator,
                            "image-out",
                            jpeg(4096),
                        );
                    }
                    ack_input_done(ctx, self.runtime, connection, translator);
                }
                RuntimeEvent::InputBatch { inputs } => {
                    for d in inputs {
                        if d.port == "shutter" {
                            self.client.as_ref().expect("set").output(
                                ctx,
                                d.translator,
                                "image-out",
                                jpeg(4096),
                            );
                        }
                        ack_input_done(ctx, self.runtime, d.connection, d.translator);
                    }
                }
                _ => {}
            }
        }
    }

    tb.world.add_process(
        tb.nodes[0],
        Box::new(Camera {
            runtime: tb.runtimes[0],
            client: None,
            id: None,
        }),
    );
    let mut button = TestService::new(
        "button",
        Shape::builder()
            .digital("press", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        tb.runtimes[0],
    );
    button.emit_at.push((
        SimDuration::from_secs(4),
        "press".to_owned(),
        UMessage::text("click"),
    ));
    tb.world.add_process(tb.nodes[0], Box::new(button));
    let tv = TestService::new("tv", jpeg_sink_shape(), tb.runtimes[1]);
    let tv_received = Rc::clone(&tv.received);
    tb.world.add_process(tb.nodes[1], Box::new(tv));

    let c1 = Connector::new(
        tb.runtimes[0],
        "button",
        "press",
        ConnectorTarget::Named("camera".to_owned(), "shutter".to_owned()),
    );
    let o1 = Rc::clone(&c1.outcome);
    tb.world.add_process(tb.nodes[0], Box::new(c1));
    let c2 = Connector::new(
        tb.runtimes[0],
        "camera",
        "image-out",
        ConnectorTarget::Named("tv".to_owned(), "media-in".to_owned()),
    );
    let o2 = Rc::clone(&c2.outcome);
    tb.world.add_process(tb.nodes[0], Box::new(c2));

    tb.world.run_until(SimTime::from_secs(8));
    assert_eq!(*o1.borrow(), Some(Ok(())));
    assert_eq!(*o2.borrow(), Some(Ok(())));
    let got = tv_received.borrow();
    assert_eq!(got.len(), 1, "press propagated through the chain");
    assert_eq!(got[0].1.body().len(), 4096);
}

#[test]
fn remote_requester_connect_is_forwarded() {
    // The connector runs on runtime 1 but the SOURCE (camera) lives on
    // runtime 0 — the connect request must be forwarded and still work.
    let mut tb = testbed(2);
    let mut camera = TestService::new("camera", jpeg_source_shape(), tb.runtimes[0]);
    camera.emit_at.push((
        SimDuration::from_secs(4),
        "image-out".to_owned(),
        jpeg(1000),
    ));
    tb.world.add_process(tb.nodes[0], Box::new(camera));
    let tv = TestService::new("tv", jpeg_sink_shape(), tb.runtimes[1]);
    let tv_received = Rc::clone(&tv.received);
    tb.world.add_process(tb.nodes[1], Box::new(tv));

    let connector = Connector::new(
        tb.runtimes[1], // note: connecting from the TV's runtime
        "camera",
        "image-out",
        ConnectorTarget::Named("tv".to_owned(), "media-in".to_owned()),
    );
    let outcome = Rc::clone(&connector.outcome);
    tb.world.add_process(tb.nodes[1], Box::new(connector));

    tb.world.run_until(SimTime::from_secs(8));
    assert_eq!(*outcome.borrow(), Some(Ok(())));
    assert_eq!(tv_received.borrow().len(), 1);
}

#[test]
fn forwarded_connect_to_dead_home_fails() {
    // The source lives on runtime 0, which dies silently after the
    // directory converged. A connect issued from runtime 1 is forwarded
    // to the dead home; once the liveness sweep evicts runtime 0, the
    // requester must get a typed failure instead of waiting forever.
    let mut tb = testbed(2);
    let camera = TestService::new("camera", jpeg_source_shape(), tb.runtimes[0]);
    tb.world.add_process(tb.nodes[0], Box::new(camera));
    let tv = TestService::new("tv", jpeg_sink_shape(), tb.runtimes[1]);
    tb.world.add_process(tb.nodes[1], Box::new(tv));
    tb.world.run_until(SimTime::from_secs(3));

    tb.world.detach(tb.nodes[0], tb.hub).unwrap();
    tb.world.remove_process(tb.runtimes[0]).unwrap();
    // Runtime 1 still lists the camera, so the connector forwards.
    let connector = Connector::new(
        tb.runtimes[1],
        "camera",
        "image-out",
        ConnectorTarget::Named("tv".to_owned(), "media-in".to_owned()),
    );
    let outcome = Rc::clone(&connector.outcome);
    tb.world.add_process(tb.nodes[1], Box::new(connector));
    tb.world.run_until(SimTime::from_secs(10));
    assert_eq!(*outcome.borrow(), None, "no answer before the TTL");

    tb.world.run_until(SimTime::from_secs(25));
    assert_eq!(
        *outcome.borrow(),
        Some(Err("home runtime rt0 unreachable".to_owned()))
    );
}

#[test]
fn lookup_and_listener_work_across_runtimes() {
    let mut tb = testbed(3);
    for (i, rt) in tb.runtimes.clone().iter().enumerate() {
        let svc = TestService::new(
            &format!("sensor-{i}"),
            Shape::builder()
                .digital("reading", Direction::Output, "text/plain".parse().unwrap())
                .build()
                .unwrap(),
            *rt,
        );
        tb.world.add_process(tb.nodes[i], Box::new(svc));
    }
    let mut watcher = TestService::new("watcher", Shape::default(), tb.runtimes[0]);
    watcher.subscribe = Some(Query::NameContains("sensor".to_owned()));
    let events = Rc::clone(&watcher.directory_events);
    tb.world.add_process(tb.nodes[0], Box::new(watcher));
    tb.world.run_until(SimTime::from_secs(3));
    let appeared: Vec<String> = events
        .borrow()
        .iter()
        .filter_map(|e| match e {
            DirectoryEvent::Appeared(p) => Some(p.name().to_owned()),
            DirectoryEvent::Disappeared(_) => None,
        })
        .collect();
    assert_eq!(appeared.len(), 3, "saw {appeared:?}");
}

#[test]
fn runtime_death_expires_remote_entries() {
    let mut tb = testbed(2);
    let svc = TestService::new("mortal", jpeg_source_shape(), tb.runtimes[1]);
    tb.world.add_process(tb.nodes[1], Box::new(svc));

    let mut watcher = TestService::new("watcher", Shape::default(), tb.runtimes[0]);
    watcher.subscribe = Some(Query::NameIs("mortal".to_owned()));
    let events = Rc::clone(&watcher.directory_events);
    tb.world.add_process(tb.nodes[0], Box::new(watcher));

    tb.world.run_until(SimTime::from_secs(3));
    assert!(matches!(
        events.borrow().first(),
        Some(DirectoryEvent::Appeared(_))
    ));

    // Partition the node first so the runtime's dying retraction delta
    // is lost, then kill it: the watcher must notice via origin
    // liveness expiry.
    tb.world.detach(tb.nodes[1], tb.hub).unwrap();
    tb.world.remove_process(tb.runtimes[1]).unwrap();
    tb.world.run_until(SimTime::from_secs(25));
    assert!(
        events
            .borrow()
            .iter()
            .any(|e| matches!(e, DirectoryEvent::Disappeared(_))),
        "TTL expiry noticed: {:?}",
        events.borrow()
    );
}

#[test]
fn unregister_sends_bye_promptly() {
    let mut tb = testbed(2);
    struct Transient {
        runtime: ProcId,
        client: Option<RuntimeClient>,
    }
    impl Process for Transient {
        fn name(&self) -> &str {
            "transient"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let mut client = RuntimeClient::new(self.runtime);
            let profile =
                TranslatorProfile::builder(TranslatorId::new(RuntimeId(u32::MAX), 0), "transient")
                    .build();
            let me = ctx.me();
            client.register(ctx, profile, me);
            self.client = Some(client);
        }
        fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            let Ok(event) = msg.downcast::<RuntimeEvent>() else {
                return;
            };
            if let RuntimeEvent::Registered { translator, .. } = *event {
                self.client
                    .as_ref()
                    .expect("set")
                    .unregister(ctx, translator);
            }
        }
    }
    tb.world.add_process(
        tb.nodes[1],
        Box::new(Transient {
            runtime: tb.runtimes[1],
            client: None,
        }),
    );
    let mut watcher = TestService::new("watcher", Shape::default(), tb.runtimes[0]);
    watcher.subscribe = Some(Query::NameIs("transient".to_owned()));
    let events = Rc::clone(&watcher.directory_events);
    tb.world.add_process(tb.nodes[0], Box::new(watcher));
    tb.world.run_until(SimTime::from_secs(3));
    let evs = events.borrow();
    assert!(
        evs.iter()
            .any(|e| matches!(e, DirectoryEvent::Disappeared(_))),
        "{evs:?}"
    );
}

#[test]
fn incompatible_connect_fails_with_reason() {
    let mut tb = testbed(1);
    let text_src = TestService::new(
        "text-source",
        Shape::builder()
            .digital("out", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        tb.runtimes[0],
    );
    let image_sink = TestService::new("image-sink", jpeg_sink_shape(), tb.runtimes[0]);
    tb.world.add_process(tb.nodes[0], Box::new(text_src));
    tb.world.add_process(tb.nodes[0], Box::new(image_sink));
    let connector = Connector::new(
        tb.runtimes[0],
        "text-source",
        "out",
        ConnectorTarget::Named("image-sink".to_owned(), "media-in".to_owned()),
    );
    let outcome = Rc::clone(&connector.outcome);
    tb.world.add_process(tb.nodes[0], Box::new(connector));
    tb.world.run_until(SimTime::from_secs(2));
    let result = outcome.borrow().clone();
    match result {
        Some(Err(reason)) => assert!(reason.contains("data types differ"), "{reason}"),
        other => panic!("expected type mismatch, got {other:?}"),
    }
}

#[test]
fn qos_bounded_buffer_drops_under_slow_consumer() {
    // Fast producer (every 1 ms), slow consumer (50 ms CPU per message),
    // bounded drop-oldest buffer: the consumer receives a fraction, the
    // runtime reports drops, and occupancy stays bounded.
    let mut tb = testbed(1);
    let stats = {
        // Rebuild runtime with a stats handle (the testbed built one
        // already; grab a new runtime on a second node instead).
        let node = tb.world.add_node("qos-host");
        tb.world.attach(node, tb.hub).unwrap();
        let rt = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(9)));
        let handle = rt.stats_handle();
        let proc = tb.world.add_process(node, Box::new(rt));
        tb.nodes.push(node);
        tb.runtimes.push(proc);
        handle
    };
    let rt = tb.runtimes[1];
    let node = tb.nodes[1];

    let mut producer = TestService::new(
        "producer",
        Shape::builder()
            .digital("out", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        rt,
    );
    for i in 0..200u64 {
        producer.emit_at.push((
            SimDuration::from_secs(2) + SimDuration::from_millis(i),
            "out".to_owned(),
            UMessage::text(format!("reading-{i}")),
        ));
    }
    tb.world.add_process(node, Box::new(producer));

    let mut consumer = TestService::new(
        "consumer",
        Shape::builder()
            .digital("in", Direction::Input, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        rt,
    );
    consumer.input_cost = SimDuration::from_millis(50);
    let received = Rc::clone(&consumer.received);
    tb.world.add_process(node, Box::new(consumer));

    let mut connector = Connector::new(
        rt,
        "producer",
        "out",
        ConnectorTarget::Named("consumer".to_owned(), "in".to_owned()),
    );
    connector.qos = QosPolicy::bounded_drop_oldest(256);
    let outcome = Rc::clone(&connector.outcome);
    tb.world.add_process(node, Box::new(connector));

    tb.world.run_until(SimTime::from_secs(30));
    assert_eq!(*outcome.borrow(), Some(Ok(())));
    let s = *stats.borrow();
    let got = received.borrow().len() as u64;
    assert!(got > 0, "some messages delivered");
    assert!(s.qos_dropped > 0, "QoS dropped the excess: {s:?}");
    assert!(
        s.max_buffered_bytes <= 512,
        "occupancy bounded: {}",
        s.max_buffered_bytes
    );
    assert!(got < 200, "slow consumer cannot keep up");
}

#[test]
fn disconnect_stops_message_flow() {
    let mut tb = testbed(1);
    let mut source = TestService::new(
        "source",
        Shape::builder()
            .digital("out", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        tb.runtimes[0],
    );
    for i in 0..20u64 {
        source.emit_at.push((
            SimDuration::from_secs(2 + i),
            "out".to_owned(),
            UMessage::text(format!("m{i}")),
        ));
    }
    tb.world.add_process(tb.nodes[0], Box::new(source));
    let sink = TestService::new(
        "sink",
        Shape::builder()
            .digital("in", Direction::Input, "text/plain".parse().unwrap())
            .build()
            .unwrap(),
        tb.runtimes[0],
    );
    let received = Rc::clone(&sink.received);
    tb.world.add_process(tb.nodes[0], Box::new(sink));

    // A connector that disconnects after the fifth delivery.
    struct DisconnectingApp {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        src: Option<PortRef>,
        dst: Option<PortRef>,
        connection: Option<umiddle_core::ConnectionId>,
        wired: bool,
    }
    impl Process for DisconnectingApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let client = RuntimeClient::new(self.runtime);
            client.add_listener(ctx, Query::All);
            self.client = Some(client);
            // Disconnect mid-stream.
            ctx.set_timer(SimDuration::from_secs(8), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            if let Some(conn) = self.connection {
                self.client.as_ref().expect("set").disconnect(ctx, conn);
            }
        }
        fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            let Ok(event) = msg.downcast::<RuntimeEvent>() else {
                return;
            };
            match *event {
                RuntimeEvent::Directory(DirectoryEvent::Appeared(p)) => {
                    if p.name() == "source" {
                        self.src = Some(PortRef::new(p.id(), "out"));
                    }
                    if p.name() == "sink" {
                        self.dst = Some(PortRef::new(p.id(), "in"));
                    }
                    if let (Some(s), Some(d), false) = (self.src, self.dst, self.wired) {
                        self.wired = true;
                        self.client.as_mut().expect("set").connect_ports(
                            ctx,
                            s,
                            d,
                            QosPolicy::unbounded(),
                        );
                    }
                }
                RuntimeEvent::Connected { connection, .. } => {
                    self.connection = Some(connection);
                }
                _ => {}
            }
        }
    }
    tb.world.add_process(
        tb.nodes[0],
        Box::new(DisconnectingApp {
            runtime: tb.runtimes[0],
            client: None,
            src: None,
            dst: None,
            connection: None,
            wired: false,
        }),
    );
    tb.world.run_until(SimTime::from_secs(30));
    let n = received.borrow().len();
    // Emissions at t=2..7 arrive (6 messages); the disconnect at t=8
    // stops the rest, with a little slack for in-flight delivery.
    assert!(
        (5..=8).contains(&n),
        "deliveries stopped at disconnect: {n}"
    );
}

#[test]
fn remove_listener_stops_directory_events() {
    let mut tb = testbed(1);

    struct FickleWatcher {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        events: Rc<RefCell<u32>>,
    }
    impl Process for FickleWatcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let client = RuntimeClient::new(self.runtime);
            client.add_listener(ctx, Query::All);
            self.client = Some(client);
            ctx.set_timer(SimDuration::from_secs(5), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            // Unsubscribe.
            ctx.send_local(
                self.client.as_ref().expect("set").runtime(),
                umiddle_core::RuntimeRequest::RemoveListener,
            );
        }
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            if let Ok(event) = msg.downcast::<RuntimeEvent>() {
                if matches!(*event, RuntimeEvent::Directory(_)) {
                    *self.events.borrow_mut() += 1;
                }
            }
        }
    }
    let events = Rc::new(RefCell::new(0));
    tb.world.add_process(
        tb.nodes[0],
        Box::new(FickleWatcher {
            runtime: tb.runtimes[0],
            client: None,
            events: Rc::clone(&events),
        }),
    );
    // One service before the unsubscribe, one after.
    let early = TestService::new("early", Shape::default(), tb.runtimes[0]);
    tb.world.add_process(tb.nodes[0], Box::new(early));
    tb.world.run_until(SimTime::from_secs(3));
    let before = *events.borrow();
    assert_eq!(before, 1, "saw the early service");
    tb.world.run_until(SimTime::from_secs(6));
    let late = TestService::new("late", Shape::default(), tb.runtimes[0]);
    tb.world.add_process(tb.nodes[0], Box::new(late));
    tb.world.run_until(SimTime::from_secs(10));
    assert_eq!(*events.borrow(), before, "no events after RemoveListener");
}

#[test]
fn lookup_correlates_tokens_and_filters() {
    let mut tb = testbed(1);
    for name in ["alpha-camera", "beta-printer", "gamma-camera"] {
        let svc = TestService::new(name, Shape::default(), tb.runtimes[0]);
        tb.world.add_process(tb.nodes[0], Box::new(svc));
    }

    struct Asker {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        #[allow(clippy::type_complexity)]
        results: Rc<RefCell<Vec<(u64, Vec<String>)>>>,
        tokens: (u64, u64),
    }
    impl Process for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let client = RuntimeClient::new(self.runtime);
            self.client = Some(client);
            ctx.set_timer(SimDuration::from_secs(2), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            let client = self.client.as_mut().expect("set");
            let t1 = client.lookup(ctx, Query::NameContains("camera".to_owned()));
            let t2 = client.lookup(ctx, Query::NameIs("beta-printer".to_owned()));
            self.tokens = (t1, t2);
        }
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            if let Ok(event) = msg.downcast::<RuntimeEvent>() {
                if let RuntimeEvent::LookupResult { token, profiles } = *event {
                    self.results.borrow_mut().push((
                        token,
                        profiles.iter().map(|p| p.name().to_owned()).collect(),
                    ));
                }
            }
        }
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    tb.world.add_process(
        tb.nodes[0],
        Box::new(Asker {
            runtime: tb.runtimes[0],
            client: None,
            results: Rc::clone(&results),
            tokens: (0, 0),
        }),
    );
    tb.world.run_until(SimTime::from_secs(5));
    let results = results.borrow();
    assert_eq!(results.len(), 2);
    let cameras = &results[0].1;
    assert_eq!(cameras.len(), 2, "{cameras:?}");
    assert!(cameras.iter().all(|n| n.contains("camera")));
    assert_eq!(results[1].1, vec!["beta-printer".to_owned()]);
    // Tokens differ and match request order.
    assert!(results[0].0 < results[1].0);
}

#[test]
fn replicas_share_one_decoded_profile() {
    // One host process runs every runtime, so each replica of a remote
    // translator is the same decoded description, not a private copy.
    struct Looker {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        found: Rc<RefCell<Vec<TranslatorProfile>>>,
    }
    impl Process for Looker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.client = Some(RuntimeClient::new(self.runtime));
            ctx.set_timer(SimDuration::from_secs(2), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            let client = self.client.as_mut().expect("set");
            client.lookup(ctx, Query::NameIs("shared-cam".to_owned()));
        }
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            if let Ok(event) = msg.downcast::<RuntimeEvent>() {
                if let RuntimeEvent::LookupResult { profiles, .. } = *event {
                    self.found.borrow_mut().extend(profiles);
                }
            }
        }
    }

    let mut tb = testbed(3);
    let cam = TestService::new("shared-cam", jpeg_source_shape(), tb.runtimes[0]);
    tb.world.add_process(tb.nodes[0], Box::new(cam));
    let mut found = Vec::new();
    for i in [1, 2] {
        let seen = Rc::new(RefCell::new(Vec::new()));
        tb.world.add_process(
            tb.nodes[i],
            Box::new(Looker {
                runtime: tb.runtimes[i],
                client: None,
                found: Rc::clone(&seen),
            }),
        );
        found.push(seen);
    }
    tb.world.run_until(SimTime::from_secs(3));
    let on_rt1 = found[0].borrow();
    let on_rt2 = found[1].borrow();
    assert_eq!(on_rt1.len(), 1, "rt1 found {on_rt1:?}");
    assert_eq!(on_rt2.len(), 1, "rt2 found {on_rt2:?}");
    assert_eq!(on_rt1[0], on_rt2[0]);
    assert!(
        on_rt1[0].shares_storage(&on_rt2[0]),
        "two replicas hold private copies of one remote profile"
    );
}

#[test]
fn partition_and_heal_recovers_the_directory() {
    let mut tb = testbed(2);
    let svc = TestService::new("islander", jpeg_source_shape(), tb.runtimes[1]);
    tb.world.add_process(tb.nodes[1], Box::new(svc));
    let mut watcher = TestService::new("watcher", Shape::default(), tb.runtimes[0]);
    watcher.subscribe = Some(Query::NameIs("islander".to_owned()));
    let events = Rc::clone(&watcher.directory_events);
    tb.world.add_process(tb.nodes[0], Box::new(watcher));

    // Converge.
    tb.world.run_until(SimTime::from_secs(3));
    assert!(matches!(
        events.borrow().first(),
        Some(DirectoryEvent::Appeared(_))
    ));

    // Partition node 1 away; after the TTL (15 s) the entry expires.
    tb.world.detach(tb.nodes[1], tb.hub).unwrap();
    tb.world.run_until(SimTime::from_secs(30));
    assert!(
        events
            .borrow()
            .iter()
            .any(|e| matches!(e, DirectoryEvent::Disappeared(_))),
        "partition noticed: {:?}",
        events.borrow()
    );

    // Heal: the periodic advertisement refresh re-populates the replica.
    tb.world.attach(tb.nodes[1], tb.hub).unwrap();
    tb.world.run_until(SimTime::from_secs(60));
    let appearances = events
        .borrow()
        .iter()
        .filter(|e| matches!(e, DirectoryEvent::Appeared(_)))
        .count();
    assert!(
        appearances >= 2,
        "islander reappeared after the partition healed: {:?}",
        events.borrow()
    );
}
