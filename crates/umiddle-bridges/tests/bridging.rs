//! End-to-end bridging tests: native devices on their own platforms,
//! mapped into uMiddle and wired together across platform boundaries.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use platform_bluetooth::{BipCamera, HidpMouse, MouseConfig};
use platform_mediabroker::MediaBroker;
use platform_motes::{BaseStation, Mote};
use platform_rmi::{RmiObjectServer, RmiRegistry, REGISTRY_PORT};
use platform_upnp::{LightLogic, MediaRendererLogic, UpnpDevice};
use platform_webservices::WsServer;
use simnet::{
    Addr, Ctx, LocalMessage, NodeId, ProcId, Process, SegmentConfig, SimDuration, SimTime, World,
};
use umiddle_apps::{WireRule, Wirer};
use umiddle_bridges::{
    behaviors, BluetoothMapper, MapperStats, MediaBrokerMapper, MotesMapper, NativeService,
    RmiMapper, UpnpMapper, WsMapper,
};
use umiddle_core::{
    Direction, DirectoryEvent, Query, RuntimeClient, RuntimeConfig, RuntimeEvent, RuntimeId,
    RuntimeStats, Shape, UMessage, UmiddleRuntime,
};
use umiddle_usdl::UsdlLibrary;

fn add_runtime(world: &mut World, node: NodeId, id: u32) -> ProcId {
    world.add_process(
        node,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(id)))),
    )
}

/// Asserts that a mapper's `mapper.{prefix}.mapped` counter agrees with
/// the mapping rows in its stats.
fn assert_mapped_counter(world: &World, prefix: &str, stats: &Rc<RefCell<MapperStats>>) {
    assert_eq!(
        world.trace().counter(&format!("mapper.{prefix}.mapped")),
        stats.borrow().mappings.len() as u64,
        "mapper.{prefix}.mapped vs mapping rows"
    );
}

fn recorder_shape(mime: &str) -> Shape {
    Shape::builder()
        .digital("in", Direction::Input, mime.parse().unwrap())
        .build()
        .unwrap()
}

/// The paper's flagship scenario: a Bluetooth BIP camera bridged to a
/// UPnP MediaRenderer TV, triggered by a native uMiddle button.
#[test]
fn camera_to_tv_across_platforms() {
    let mut world = World::new(101);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

    // H1: runtime + Bluetooth mapper (attached to both segments).
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt1 = add_runtime(&mut world, h1, 0);

    // H2: runtime + UPnP mapper.
    let h2 = world.add_node("h2");
    world.attach(h2, hub).unwrap();
    let rt2 = add_runtime(&mut world, h2, 1);

    // Native devices.
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 2, 20_000)),
    );

    let tv_node = world.add_node("tv");
    world.attach(tv_node, hub).unwrap();
    world.add_process(
        tv_node,
        Box::new(UpnpDevice::new(
            Box::new(MediaRendererLogic::new("Living Room TV", "uuid:tv")),
            5000,
        )),
    );

    // Mappers (after devices, order does not matter).
    let bt = BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled());
    let bt_stats = bt.stats_handle();
    world.add_process(h1, Box::new(bt));
    let up = UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled());
    let up_stats = up.stats_handle();
    world.add_process(h2, Box::new(up));

    // A native button that "presses" every 5 s starting late enough for
    // discovery and wiring to settle.
    let button_shape = Shape::builder()
        .digital("press", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Shutter Button",
            button_shape,
            rt1,
            Box::new(behaviors::PeriodicSource::new(
                "press",
                SimDuration::from_secs(20),
                3,
                |_| UMessage::text("snap"),
            )),
        )),
    );

    // Wire button -> camera.capture and camera.image-out -> tv.media-in.
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt1,
            vec![
                WireRule::new("Shutter Button", "press", "Pocket Camera", "capture"),
                WireRule::new("Pocket Camera", "image-out", "Living Room TV", "media-in"),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(90));

    assert!(
        !bt_stats.borrow().mappings.is_empty(),
        "camera mapped: {:?}",
        bt_stats.borrow()
    );
    assert!(
        !up_stats.borrow().mappings.is_empty(),
        "tv mapped: {:?}",
        up_stats.borrow()
    );
    assert_mapped_counter(&world, "bt", &bt_stats);
    assert_mapped_counter(&world, "upnp", &up_stats);
    // The TV's RenderMedia action actually executed on the native device.
    let renders = world.trace().counter("upnp.actions");
    assert!(renders >= 1, "TV rendered {renders} frames");
    // And images crossed the bridge (shutter -> pull -> emit).
    assert!(
        world.trace().counter("bt.bip_captures") >= 1,
        "camera captured"
    );
}

/// §5.2's device-level scenario: the Bluetooth mouse's clicks flow to a
/// native recorder.
#[test]
fn mouse_clicks_reach_a_native_recorder() {
    let mut world = World::new(102);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = add_runtime(&mut world, h1, 0);

    let mouse_node = world.add_node("mouse");
    world.attach(mouse_node, pico).unwrap();
    world.add_process(
        mouse_node,
        Box::new(HidpMouse::new(MouseConfig {
            name: "HIDP Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(400)),
            motion_interval: None,
            click_limit: 5,
        })),
    );

    let bt = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
    world.add_process(h1, Box::new(bt));

    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Click Recorder",
            recorder_shape("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );

    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new(
                "HIDP Mouse",
                "clicks",
                "Click Recorder",
                "in",
            )],
        )),
    );

    world.run_until(SimTime::from_secs(60));
    let received = received.borrow();
    // 5 clicks = 5 presses + 5 releases; wiring may miss early ones.
    assert!(
        received.len() >= 6,
        "recorder saw {} click events",
        received.len()
    );
    assert!(received
        .iter()
        .all(|(_, m)| m.body_text() == Some("press") || m.body_text() == Some("release")));
    assert!(world.trace().counter("mapper.bt.hid_translated") >= 6);
}

/// An RMI world on one hub: on h1 the runtime, the RMI mapper of
/// `EchoService` and a "Payload Source" of `count` 1400-byte messages,
/// 10 s apart, wired into the object's `request` port; the registry and
/// `server` (given its port and the registry) on nodes of their own.
fn rmi_world(
    seed: u64,
    server: fn(u16, Addr) -> RmiObjectServer,
    count: u64,
) -> (World, NodeId, ProcId, Rc<RefCell<MapperStats>>) {
    let mut world = World::new(seed);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let reg_node = world.add_node("registry");
    let srv_node = world.add_node("rmi-server");
    for n in [h1, reg_node, srv_node] {
        world.attach(n, hub).unwrap();
    }
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(reg_node, Box::new(RmiRegistry::new()));
    let registry = Addr::new(reg_node, REGISTRY_PORT);
    world.add_process(srv_node, Box::new(server(2099, registry)));
    let rmi_mapper = RmiMapper::new(
        rt,
        UsdlLibrary::bundled(),
        registry,
        vec!["EchoService".to_owned()],
    );
    let rmi_stats = rmi_mapper.stats_handle();
    world.add_process(h1, Box::new(rmi_mapper));

    // Source: 1400-byte messages, like the paper's transport benchmark.
    fn octets() -> umiddle_core::MimeType {
        "application/octet-stream".parse().unwrap()
    }
    let src_shape = Shape::builder()
        .digital("out", Direction::Output, octets())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Payload Source",
            src_shape,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(10),
                count,
                |i| UMessage::new(octets(), vec![i as u8; 1400]),
            )),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new(
                "Payload Source",
                "out",
                "EchoService",
                "request",
            )],
        )),
    );
    (world, h1, rt, rmi_stats)
}

/// RMI echo through uMiddle: a native source feeds the RMI translator's
/// request port; the echoed responses land in a recorder.
#[test]
fn rmi_echo_bridged() {
    let (mut world, h1, rt, rmi_stats) = rmi_world(103, RmiObjectServer::echo, 4);
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Echo Recorder",
            recorder_shape("application/octet-stream"),
            rt,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new(
                "EchoService",
                "response",
                "Echo Recorder",
                "in",
            )],
        )),
    );

    world.run_until(SimTime::from_secs(60));
    let received = received.borrow();
    assert!(
        received.len() >= 2,
        "echoed responses recorded: {}",
        received.len()
    );
    assert!(received.iter().all(|(_, m)| m.body().len() == 1400));
    assert_eq!(rmi_stats.borrow().mappings.len(), 1, "echo object mapped");
    assert_mapped_counter(&world, "rmi", &rmi_stats);
}

/// An RMI object that raises on the mapper's `echo` call (a method it
/// does not have) is counted, and the input is still acked: the delivery
/// credit comes back, so more inputs than one path's credit get through.
#[test]
fn rmi_exceptions_are_counted_and_acked() {
    let no_echo = |port, registry| {
        RmiObjectServer::new(
            "EchoService",
            port,
            registry,
            Box::new(|method, _| Err(format!("java.rmi.ServerException: no method {method}"))),
        )
    };
    let (mut world, ..) = rmi_world(110, no_echo, 12);
    // (exceptions counted, inputs delivered to the mapper)
    let counts = |world: &World| {
        let exceptions = world.trace().counter("mapper.rmi.exceptions");
        (exceptions, closed_spans(world, "bridge.rmi.input").1)
    };
    while counts(&world).1 == 0 {
        world.run_until(world.now() + SimDuration::from_millis(100));
    }
    world.run_until(world.now() + SimDuration::from_secs(1));
    assert_eq!(counts(&world), (1, 1), "the first input raised once");

    world.run_until(SimTime::from_secs(150));
    // Twelve inputs, three times one path's delivery credit of four.
    assert_eq!(counts(&world), (12, 12), "every input arrived and raised");
}

/// A MediaBroker producer: registers a channel, then sends one
/// `size`-byte Data frame every `interval`.
struct PacedMbProducer {
    broker: Addr,
    size: usize,
    interval: SimDuration,
    stream: Option<simnet::StreamId>,
}

impl Process for PacedMbProducer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = ctx.connect(self.broker).ok();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(stream) = self.stream {
            let frame = platform_mediabroker::MbFrame::Data {
                payload: vec![0xAB; self.size].into(),
            };
            let _ = ctx.stream_send(stream, frame.encode_framed());
            ctx.set_timer(self.interval, 0);
        }
    }
    fn on_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        stream: simnet::StreamId,
        event: simnet::StreamEvent,
    ) {
        if matches!(event, simnet::StreamEvent::Connected) {
            let produce = platform_mediabroker::MbFrame::Produce {
                channel: "bench".to_owned(),
                media_type: "application/octet-stream".to_owned(),
            };
            let _ = ctx.stream_send(stream, produce.encode_framed());
            ctx.set_timer(self.interval, 0);
        }
    }
}

/// The paper's Figure-11 RMI-MB path (MB producer → broker → MB mapper
/// → runtime → RMI mapper → `echo_ack` object → runtime → sink) copies
/// no payload byte once warm: every stream chunk, MB frame, JRMP value
/// and uMessage body is a view of a buffer some encoder wrote.
#[test]
fn rmi_mb_bridged_path_copies_nothing() {
    let mut world = World::new(107);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let n1 = world.add_node("n1");
    let h2 = world.add_node("h2");
    let n3 = world.add_node("n3");
    for n in [n1, h2, n3] {
        world.attach(n, hub).unwrap();
    }
    world.add_process(n1, Box::new(MediaBroker::new()));
    let broker = Addr::new(n1, platform_mediabroker::BROKER_PORT);
    world.add_process(
        n1,
        Box::new(PacedMbProducer {
            broker,
            size: 1400,
            interval: SimDuration::from_micros(2_400),
            stream: None,
        }),
    );
    let rt = add_runtime(&mut world, h2, 0);
    world.add_process(n3, Box::new(RmiRegistry::new()));
    let registry = Addr::new(n3, REGISTRY_PORT);
    world.add_process(n3, Box::new(RmiObjectServer::echo_ack(2099, registry)));
    world.add_process(
        h2,
        Box::new(MediaBrokerMapper::new(
            rt,
            UsdlLibrary::bundled(),
            broker,
            vec![],
        )),
    );
    world.add_process(
        h2,
        Box::new(RmiMapper::new(
            rt,
            UsdlLibrary::bundled(),
            registry,
            vec!["EchoService".to_owned()],
        )),
    );
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h2,
        Box::new(NativeService::new(
            "Bridge Meter",
            recorder_shape("application/octet-stream"),
            rt,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h2,
        Box::new(Wirer::new(
            rt,
            vec![
                WireRule::new("MB channel bench", "media-out", "EchoService", "request")
                    .with_qos(umiddle_core::QosPolicy::bounded_drop_newest(64 * 1024)),
                WireRule::new("EchoService", "response", "Bridge Meter", "in"),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(10));
    let delivered_before = received.borrow().len();
    let copied_before = world.trace().counter("payload.bytes_copied");
    world.run_until(SimTime::from_secs(12));
    let delivered = received.borrow().len() - delivered_before;
    let copied = world.trace().counter("payload.bytes_copied") - copied_before;
    assert!(delivered > 100, "bridged messages delivered: {delivered}");
    assert_eq!(copied, 0, "{copied} B copied over {delivered} deliveries");
}

/// Motes readings flow to a recorder via per-mote translators.
#[test]
fn mote_readings_bridged() {
    let mut world = World::new(104);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let radio = world.add_segment(SegmentConfig::mote_radio());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, radio).unwrap();
    let rt = add_runtime(&mut world, h1, 0);

    for i in 0..2 {
        let m_node = world.add_node(format!("mote{i}"));
        world.attach(m_node, radio).unwrap();
        world.add_process(
            m_node,
            Box::new(Mote::new(i as u16 + 1, SimDuration::from_secs(2))),
        );
    }

    let mapper = MotesMapper::new(rt, UsdlLibrary::bundled(), None);
    let mapper_stats = mapper.stats_handle();
    let mapper_proc = world.add_process(h1, Box::new(mapper));
    world.add_process(h1, Box::new(BaseStation::new(Some(mapper_proc))));

    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Temp Recorder",
            recorder_shape("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new(
                "Mote 1",
                "temperature",
                "Temp Recorder",
                "in",
            )],
        )),
    );

    world.run_until(SimTime::from_secs(60));
    assert_eq!(mapper_stats.borrow().mappings.len(), 2, "both motes mapped");
    assert_mapped_counter(&world, "motes", &mapper_stats);
    let received = received.borrow();
    assert!(
        received.len() >= 5,
        "temperature readings recorded: {}",
        received.len()
    );
}

/// Records every directory event a `Query::All` listener receives.
struct DirectoryWatcher {
    runtime: ProcId,
    events: Rc<RefCell<Vec<DirectoryEvent>>>,
}

impl Process for DirectoryWatcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        RuntimeClient::new(self.runtime).add_listener(ctx, Query::All);
    }

    fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        if let Ok(event) = msg.downcast::<RuntimeEvent>() {
            if let RuntimeEvent::Directory(e) = *event {
                self.events.borrow_mut().push(e);
            }
        }
    }
}

/// Motes that fall silent together are unregistered in mote-id order,
/// the same on every run, not in the order of the mapper's hash map.
#[test]
fn silent_motes_expire_in_id_order() {
    fn run() -> Vec<String> {
        let mut world = World::new(105);
        let radio = world.add_segment(SegmentConfig::mote_radio());
        let h1 = world.add_node("h1");
        world.attach(h1, radio).unwrap();
        let rt = add_runtime(&mut world, h1, 0);
        let motes: Vec<ProcId> = (1..=8)
            .map(|id| {
                let node = world.add_node(format!("mote{id}"));
                world.attach(node, radio).unwrap();
                world.add_process(node, Box::new(Mote::new(id, SimDuration::from_secs(2))))
            })
            .collect();
        let mapper = world.add_process(
            h1,
            Box::new(MotesMapper::new(rt, UsdlLibrary::bundled(), None)),
        );
        world.add_process(h1, Box::new(BaseStation::new(Some(mapper))));
        let events = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            h1,
            Box::new(DirectoryWatcher {
                runtime: rt,
                events: Rc::clone(&events),
            }),
        );
        world.run_until(SimTime::from_secs(20));
        for mote in motes {
            world.remove_process(mote).unwrap();
        }
        world.run_until(SimTime::from_secs(120));

        let mut names = HashMap::new();
        let mut gone = Vec::new();
        for event in events.borrow().iter() {
            match event {
                DirectoryEvent::Appeared(p) => {
                    names.insert(p.id(), p.name().to_owned());
                }
                DirectoryEvent::Disappeared(id) => gone.push(names[id].clone()),
            }
        }
        gone
    }
    let expected: Vec<String> = (1..=8).map(|id| format!("Mote {id}")).collect();
    assert_eq!(run(), expected);
    assert_eq!(run(), expected);
}

/// MediaBroker channels and web services both appear as translators.
#[test]
fn mediabroker_and_webservice_mapped() {
    let mut world = World::new(105);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let mb_node = world.add_node("broker");
    let ws_node = world.add_node("ws");
    for n in [h1, mb_node, ws_node] {
        world.attach(n, hub).unwrap();
    }
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(mb_node, Box::new(MediaBroker::new()));
    world.add_process(ws_node, Box::new(WsServer::logger("Event Log", 8080)));

    // A raw MB producer so the roster has a channel to discover.
    struct RawProducer {
        broker: Addr,
    }
    impl Process for RawProducer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.broker).unwrap();
        }
        fn on_stream(
            &mut self,
            ctx: &mut Ctx<'_>,
            stream: simnet::StreamId,
            event: simnet::StreamEvent,
        ) {
            if matches!(event, simnet::StreamEvent::Connected) {
                let _ = ctx.stream_send(
                    stream,
                    platform_mediabroker::MbFrame::Produce {
                        channel: "webcam".to_owned(),
                        media_type: "application/octet-stream".to_owned(),
                    }
                    .encode_framed(),
                );
            }
        }
    }
    let broker_addr = Addr::new(mb_node, platform_mediabroker::BROKER_PORT);
    world.add_process(
        mb_node,
        Box::new(RawProducer {
            broker: broker_addr,
        }),
    );

    let mb_mapper = MediaBrokerMapper::new(rt, UsdlLibrary::bundled(), broker_addr, vec![]);
    let mb_stats = mb_mapper.stats_handle();
    world.add_process(h1, Box::new(mb_mapper));

    let ws_mapper = WsMapper::new(rt, UsdlLibrary::bundled(), vec![Addr::new(ws_node, 8080)]);
    let ws_stats = ws_mapper.stats_handle();
    world.add_process(h1, Box::new(ws_mapper));

    world.run_until(SimTime::from_secs(30));
    assert!(
        mb_stats
            .borrow()
            .mappings
            .iter()
            .any(|(_, name, _)| name.contains("webcam")),
        "mb channel mapped: {:?}",
        mb_stats.borrow().mappings
    );
    assert!(
        ws_stats
            .borrow()
            .mappings
            .iter()
            .any(|(kind, _, _)| kind == "logger"),
        "ws mapped: {:?}",
        ws_stats.borrow().mappings
    );
    assert_mapped_counter(&world, "mb", &mb_stats);
    assert_mapped_counter(&world, "ws", &ws_stats);
}

/// The UPnP light switch controlled through uMiddle — §5.2's scenario.
#[test]
fn upnp_light_switch_through_umiddle() {
    let mut world = World::new(106);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let light_node = world.add_node("light");
    world.attach(h1, hub).unwrap();
    world.attach(light_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Hall Light", "uuid:hall")),
            5000,
        )),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // A switch app that sends "on" pulses into the light's switch-on port.
    let switch_shape = Shape::builder()
        .digital("toggle", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Wall Switch",
            switch_shape,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "toggle",
                SimDuration::from_secs(10),
                3,
                |_| UMessage::text("1"),
            )),
        )),
    );
    // Watch the light's power-state output.
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "State Recorder",
            recorder_shape("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![
                WireRule::new("Wall Switch", "toggle", "Hall Light", "switch-on"),
                WireRule::new("Hall Light", "power-state", "State Recorder", "in"),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(60));
    // The SetPower action ran on the native device...
    assert!(world.trace().counter("upnp.actions") >= 1);
    // ...and the resulting GENA event crossed back into the common space.
    let received = received.borrow();
    assert!(
        received.iter().any(|(_, m)| m.body_text() == Some("1")),
        "power-state=1 observed: {received:?}"
    );
}

/// Adds a switch on `node` that sends `pulses` "1"s, `period` apart, into
/// `target`'s `port`.
fn add_pulser(
    world: &mut World,
    node: NodeId,
    rt: ProcId,
    pulses: u64,
    period: SimDuration,
    target: &str,
    port: &str,
) {
    let switch_shape = Shape::builder()
        .digital("toggle", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        node,
        Box::new(NativeService::new(
            "Wall Switch",
            switch_shape,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "toggle",
                period,
                pulses,
                |_| UMessage::text("1"),
            )),
        )),
    );
    world.add_process(
        node,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new("Wall Switch", "toggle", target, port)],
        )),
    );
}

/// The closed spans of `stage` and the count of all its spans.
fn closed_spans(world: &World, stage: &str) -> (usize, usize) {
    let spans: Vec<_> = world.trace().spans().filter(|s| s.stage == stage).collect();
    let closed = spans.iter().filter(|s| s.end.is_some()).count();
    (closed, spans.len())
}

/// A mapped UPnP light cut off from the network: every SetPower input
/// still reaches the mapper and is answered (its action fails at once,
/// with no route), so the path's delivery credit never runs out and every
/// native-call span closes.
#[test]
fn upnp_actions_on_a_partitioned_light_are_answered() {
    const PULSES: u64 = 8;
    let mut world = World::new(108);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let light_node = world.add_node("light");
    world.attach(h1, hub).unwrap();
    world.attach(light_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Hall Light", "uuid:hall")),
            5000,
        )),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );
    add_pulser(
        &mut world,
        h1,
        rt,
        PULSES,
        SimDuration::from_secs(20),
        "Hall Light",
        "switch-on",
    );

    // Map and wire the light, then cut it off before the first pulse.
    world.run_until(SimTime::from_secs(15));
    assert_eq!(world.trace().counter("mapper.upnp.mapped"), 1);
    world.detach(light_node, hub).unwrap();
    world.run_until(SimTime::from_secs(20 * (PULSES + 2)));

    let pulses = PULSES as usize;
    assert_eq!(closed_spans(&world, "bridge.upnp.input"), (pulses, pulses));
    assert_eq!(closed_spans(&world, "bridge.upnp.native"), (pulses, pulses));
    assert_eq!(world.trace().counter("mapper.upnp.failures"), PULSES);
    assert_eq!(world.trace().counter("upnp.cp_connect_failed"), PULSES);
    assert_eq!(world.trace().counter("upnp.actions"), 0);
}

/// The web-services twin: a mapped logger cut off from the network still
/// answers every input through a failed call.
#[test]
fn ws_calls_to_a_partitioned_service_are_answered() {
    const PULSES: u64 = 8;
    let mut world = World::new(109);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let ws_node = world.add_node("ws");
    world.attach(h1, hub).unwrap();
    world.attach(ws_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(ws_node, Box::new(WsServer::logger("Event Log", 8080)));
    world.add_process(
        h1,
        Box::new(WsMapper::new(
            rt,
            UsdlLibrary::bundled(),
            vec![Addr::new(ws_node, 8080)],
        )),
    );
    add_pulser(
        &mut world,
        h1,
        rt,
        PULSES,
        SimDuration::from_secs(20),
        "Event Log",
        "log-in",
    );

    world.run_until(SimTime::from_secs(15));
    assert_eq!(world.trace().counter("mapper.ws.mapped"), 1);
    let calls_served = world.trace().counter("ws.calls");
    world.detach(ws_node, hub).unwrap();
    world.run_until(SimTime::from_secs(20 * (PULSES + 2)));

    let pulses = PULSES as usize;
    assert_eq!(
        closed_spans(&world, "bridge.webservices.input"),
        (pulses, pulses)
    );
    assert_eq!(world.trace().counter("ws.calls"), calls_served);
}

/// The Bluetooth twin: a mapped camera cut off from its piconet still
/// answers every capture (its OBEX connect fails at once, with no
/// route), so the path's delivery credit never runs out. The presses
/// come 2 s apart, all inside the 30 s inquiry expiry, so the camera
/// stays mapped while they arrive.
#[test]
fn bluetooth_inputs_to_a_partitioned_camera_are_answered() {
    const PULSES: u64 = 8;
    let mut world = World::new(111);
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    let cam_node = world.add_node("camera");
    world.attach(h1, pico).unwrap();
    world.attach(cam_node, pico).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(cam_node, Box::new(BipCamera::new("Cam", 1, 8_000)));
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Map the camera, cut it off, then start pressing.
    world.run_until(SimTime::from_secs(12));
    assert_eq!(world.trace().counter("mapper.bt.mapped"), 1);
    world.detach(cam_node, pico).unwrap();
    let every_2s = SimDuration::from_secs(2);
    add_pulser(&mut world, h1, rt, PULSES, every_2s, "Cam", "capture");
    world.run_until(SimTime::from_secs(12 + 2 * (PULSES + 3)));

    let pulses = PULSES as usize;
    assert_eq!(
        closed_spans(&world, "bridge.bluetooth.input"),
        (pulses, pulses)
    );
    assert_eq!(world.trace().counter("mapper.bt.expired"), 0);
}

/// A UPnP light whose `ssdp:alive` reaches the mapper 4 s before its
/// HTTP server listens: the failed description fetch is forgotten, and
/// the alive the device multicasts when it starts gets it mapped.
#[test]
fn upnp_light_described_late_is_mapped() {
    /// Multicasts the light's `ssdp:alive` once, 100 ms in.
    struct EarlyAlive {
        alive: platform_upnp::SsdpMessage,
    }
    impl Process for EarlyAlive {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let bytes = self.alive.to_bytes();
            ctx.multicast(5000, platform_upnp::SSDP_GROUP, bytes)
                .unwrap();
        }
    }
    let mut world = World::new(110);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let light_node = world.add_node("light");
    world.attach(h1, hub).unwrap();
    world.attach(light_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    let mapper = UpnpMapper::with_defaults(rt, UsdlLibrary::bundled());
    let stats = mapper.stats_handle();
    world.add_process(h1, Box::new(mapper));
    let logic = LightLogic::new("Hall Light", "uuid:hall");
    let desc = platform_upnp::DeviceLogic::description(&logic);
    let alive = platform_upnp::SsdpMessage::Alive {
        usn: desc.udn,
        device_type: desc.device_type,
        location: Addr::new(light_node, 5000),
        max_age: 1800,
    };
    world.add_process(light_node, Box::new(EarlyAlive { alive }));

    let server_start = SimTime::from_millis(4_100);
    world.run_until(server_start);
    assert_eq!(world.trace().counter("mapper.upnp.failures"), 1);
    assert_eq!(world.trace().counter("mapper.upnp.mapped"), 0);
    world.add_process(light_node, Box::new(UpnpDevice::new(Box::new(logic), 5000)));
    // Mapped within 2 s of the server starting, not at the next
    // re-search 30 s in (or never).
    world.run_until(server_start + SimDuration::from_secs(2));
    assert_eq!(world.trace().counter("mapper.upnp.mapped"), 1);
    assert_mapped_counter(&world, "upnp", &stats);
}

/// A web service that starts 5 s after the mapper: the describe sent at
/// start fails, and the next poll describes it again and maps it.
#[test]
fn ws_service_started_late_is_mapped() {
    let mut world = World::new(111);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let ws_node = world.add_node("ws");
    world.attach(h1, hub).unwrap();
    world.attach(ws_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    let mapper = WsMapper::new(rt, UsdlLibrary::bundled(), vec![Addr::new(ws_node, 8080)]);
    let stats = mapper.stats_handle();
    world.add_process(h1, Box::new(mapper));

    world.run_until(SimTime::from_secs(5));
    assert_eq!(world.trace().counter("mapper.ws.mapped"), 0);
    world.add_process(ws_node, Box::new(WsServer::logger("Event Log", 8080)));
    // The 10 s poll re-describes it; mapped well before the next one.
    world.run_until(SimTime::from_secs(12));
    assert_eq!(world.trace().counter("mapper.ws.mapped"), 1);
    assert_mapped_counter(&world, "ws", &stats);
}

/// An endpoint that accepts and drops every connection is described
/// once at start and once per 10 s poll, never faster.
#[test]
fn ws_describe_retries_follow_the_poll() {
    /// Listens on 8080, counts each connection and closes it unanswered.
    struct Mute {
        accepted: Rc<RefCell<u64>>,
    }
    impl Process for Mute {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(8080).unwrap();
        }
        fn on_stream(
            &mut self,
            ctx: &mut Ctx<'_>,
            stream: simnet::StreamId,
            event: simnet::StreamEvent,
        ) {
            if let simnet::StreamEvent::Accepted { .. } = event {
                *self.accepted.borrow_mut() += 1;
                ctx.stream_close(stream);
            }
        }
    }
    let mut world = World::new(112);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let ws_node = world.add_node("ws");
    world.attach(h1, hub).unwrap();
    world.attach(ws_node, hub).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    let accepted = Rc::new(RefCell::new(0));
    world.add_process(
        ws_node,
        Box::new(Mute {
            accepted: Rc::clone(&accepted),
        }),
    );
    world.add_process(
        h1,
        Box::new(WsMapper::new(
            rt,
            UsdlLibrary::bundled(),
            vec![Addr::new(ws_node, 8080)],
        )),
    );
    world.run_until(SimTime::from_secs(65));
    // At 0 s and at each poll, 10 s through 60 s.
    assert_eq!(*accepted.borrow(), 7);
    assert_eq!(world.trace().counter("mapper.ws.mapped"), 0);
}

/// A UPnP light that says `ssdp:byebye` while the mapper is still
/// instantiating its translator leaves no orphan translator behind: the
/// late registration is withdrawn as soon as it completes.
#[test]
fn upnp_byebye_during_instantiation_leaves_no_orphan() {
    struct TwoLights {
        world: World,
        lights: Vec<(ProcId, &'static str)>,
        runtime: Rc<RefCell<RuntimeStats>>,
        mapper: Rc<RefCell<MapperStats>>,
    }
    fn two_lights() -> TwoLights {
        let mut world = World::new(108);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let h1 = world.add_node("h1");
        world.attach(h1, hub).unwrap();
        let runtime = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)));
        let runtime_stats = runtime.stats_handle();
        let rt = world.add_process(h1, Box::new(runtime));
        let mut lights = Vec::new();
        for (name, udn) in [("Hall Light", "uuid:hall"), ("Desk Light", "uuid:desk")] {
            let node = world.add_node(name);
            world.attach(node, hub).unwrap();
            let logic = Box::new(LightLogic::new(name, udn));
            let device = world.add_process(node, Box::new(UpnpDevice::new(logic, 5000)));
            lights.push((device, name));
        }
        let mapper = UpnpMapper::with_defaults(rt, UsdlLibrary::bundled());
        let mapper_stats = mapper.stats_handle();
        world.add_process(h1, Box::new(mapper));
        TwoLights {
            world,
            lights,
            runtime: runtime_stats,
            mapper: mapper_stats,
        }
    }
    let entries = |t: &TwoLights| t.runtime.borrow().directory_entries;

    // Probe run. Both descriptions arrive together, so the mapper
    // instantiates one light while the other's description waits in its
    // queue. The busy window opens when the first registration reaches
    // the runtime and closes when the mapper hears it completed; the
    // probe's second mapping row names the light that waited.
    let mut probe = two_lights();
    let mapped = |t: &TwoLights| t.world.trace().counter("mapper.upnp.mapped");
    while entries(&probe) == 0 {
        assert!(probe.world.step(), "no light is ever registered");
    }
    let opens = probe.world.now();
    while mapped(&probe) == 0 {
        assert!(probe.world.step(), "no light is ever mapped");
    }
    let closes = probe.world.now();
    let settled = closes + SimDuration::from_secs(10);
    probe.world.run_until(settled);
    assert_eq!(entries(&probe), 2, "both lights mapped");
    let waiting = probe.mapper.borrow().mappings[1].1.clone();

    // Same world, but the waiting light leaves halfway through the
    // window: its byebye queues behind its description, so the mapper
    // forgets the light before the registration it then sends completes.
    let mut run = two_lights();
    let half = SimDuration::from_nanos((closes - opens).as_nanos() / 2);
    run.world.run_until(opens + half);
    assert_eq!(entries(&run), 1, "only the first light registered yet");
    assert_eq!(mapped(&run), 0, "the mapper is still instantiating");
    let (device, _) = *run.lights.iter().find(|(_, n)| *n == waiting).unwrap();
    run.world.remove_process(device).unwrap(); // on_stop multicasts byebye
    let mut peak = 0;
    while run.world.now() < settled {
        assert!(run.world.step());
        peak = peak.max(entries(&run));
    }
    assert_eq!(peak, 2, "the departed light's registration completed");
    assert_eq!(
        entries(&run),
        1,
        "the departed light's translator is withdrawn"
    );
    assert_eq!(mapped(&run), 1);
    assert_mapped_counter(&run.world, "upnp", &run.mapper);
}

/// The scattered-visibility extension (design 2-a): a *native* UPnP
/// control point — with no uMiddle code at all — discovers the exported
/// Bluetooth camera and triggers its shutter over plain SOAP.
#[test]
fn scattered_visibility_exports_camera_to_native_upnp() {
    use platform_upnp::{ControlPoint, CpEvent, SoapCall};
    use simnet::{Datagram, StreamEvent, StreamId};
    use umiddle_bridges::UpnpExporter;

    let mut world = World::new(107);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = add_runtime(&mut world, h1, 0);
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 1, 8_000)),
    );

    // The exporter projects Bluetooth translators back out as UPnP.
    world.add_process(
        h1,
        Box::new(UpnpExporter::new(
            rt,
            Query::Platform("bluetooth".to_owned()),
            6100,
        )),
    );

    // A COMPLETELY NATIVE UPnP control point on another node.
    struct NativeCp {
        cp: ControlPoint,
        fired: Rc<RefCell<u32>>,
    }
    impl Process for NativeCp {
        fn name(&self) -> &str {
            "native-upnp-cp"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7000).unwrap();
            let _ = ctx.join_group(platform_upnp::SSDP_GROUP);
            self.cp.listen_events(ctx, 7001);
            // Re-search periodically until the export appears.
            ctx.set_timer(SimDuration::from_secs(5), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            self.cp.search(ctx, "urn:umiddle:device:Exported:1", 7000);
            ctx.set_timer(SimDuration::from_secs(5), 1);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
            if let Some(CpEvent::DeviceSeen { location, .. }) = self.cp.handle_ssdp(ctx, &d) {
                if *self.fired.borrow() == 0 {
                    *self.fired.borrow_mut() = 1;
                    let call = SoapCall::new("Exported", "SetCapture").with_arg("Value", "snap");
                    let _ = self.cp.invoke(ctx, location, &call, 1);
                }
            }
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, s: StreamId, e: StreamEvent) {
            for ev in self.cp.handle_stream(ctx, s, e) {
                if matches!(ev, CpEvent::ActionResult { .. }) {
                    *self.fired.borrow_mut() = 2;
                }
            }
        }
    }
    let fired = Rc::new(RefCell::new(0));
    let cp_node = world.add_node("native-cp");
    world.attach(cp_node, hub).unwrap();
    world.add_process(
        cp_node,
        Box::new(NativeCp {
            cp: ControlPoint::new(),
            fired: Rc::clone(&fired),
        }),
    );

    world.run_until(SimTime::from_secs(120));
    assert_eq!(*fired.borrow(), 2, "native CP invoked the exported action");
    // The SOAP call crossed uMiddle and fired the real Bluetooth shutter.
    assert!(
        world.trace().counter("bt.bip_captures") >= 1,
        "camera captured via native UPnP: {:?}",
        world.trace().counters().collect::<Vec<_>>()
    );
}
