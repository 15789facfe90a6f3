//! Workspace-level integration tests: full-stack scenarios spanning every
//! crate, including failure injection (device churn, lossy media, dead
//! runtimes).

use std::rc::Rc;

use umiddle::platform_bluetooth::{BipCamera, BipPrinter};
use umiddle::platform_upnp::{LightLogic, MediaRendererLogic, UpnpDevice};
use umiddle::simnet::{SegmentConfig, SimDuration, SimTime, TraceAssert, World};
use umiddle::umiddle_apps::{WireRule, Wirer};
use umiddle::umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle::umiddle_core::{
    Direction, QosPolicy, RuntimeConfig, RuntimeId, Shape, UMessage, UmiddleRuntime,
};
use umiddle::umiddle_usdl::UsdlLibrary;

fn recorder_shape(mime: &str) -> Shape {
    Shape::builder()
        .digital("in", Direction::Input, mime.parse().unwrap())
        .build()
        .unwrap()
}

/// The same camera drives a UPnP TV *and* a Bluetooth photo printer —
/// the paper's fine-grained device polymorphism: "the BIP Translator can
/// be connected to a player device, a storage device, and others if
/// their MIME-types match".
#[test]
fn one_camera_many_sinks_polymorphism() {
    let mut world = World::new(301);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 1, 10_000)),
    );
    let printer_node = world.add_node("printer");
    world.attach(printer_node, pico).unwrap();
    world.add_process(printer_node, Box::new(BipPrinter::new("Photo Printer")));
    let tv_node = world.add_node("tv");
    world.attach(tv_node, hub).unwrap();
    world.add_process(
        tv_node,
        Box::new(UpnpDevice::new(
            Box::new(MediaRendererLogic::new("Living Room TV", "uuid:tv")),
            5000,
        )),
    );

    // Trigger a capture periodically.
    let button = Shape::builder()
        .digital("press", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Trigger",
            button,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "press",
                SimDuration::from_secs(25),
                2,
                |_| UMessage::text("snap"),
            )),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![
                WireRule::new("Trigger", "press", "Pocket Camera", "capture"),
                // One output, two sinks on two different platforms.
                WireRule::new("Pocket Camera", "image-out", "Living Room TV", "media-in"),
                WireRule::new("Pocket Camera", "image-out", "Photo Printer", "image-in"),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(120));
    assert!(
        world.trace().counter("upnp.actions") >= 1,
        "TV rendered at least one frame"
    );
    assert!(
        world.trace().counter("bt.bip_printed") >= 1,
        "printer printed at least one frame"
    );

    // The TV-bound frame's journey is causally complete: queued, locally
    // delivered (single runtime, no wire hop) and handed to the UPnP
    // bridge, all within the virtual minute after the trigger fires.
    let trace = world.trace();
    let corr = trace
        .spans()
        .iter()
        .find(|s| s.stage == "bridge.upnp.input")
        .expect("a frame reached the UPnP bridge")
        .corr;
    TraceAssert::new(trace)
        .expect_path(corr)
        .through(&[
            "output.enqueue",
            "queue.wait",
            "deliver.local",
            "bridge.upnp.input",
        ])
        .within(SimDuration::from_secs(60));
}

/// Device churn: a light that disappears and returns is re-mapped, and a
/// *query* connection re-binds to the replacement automatically.
#[test]
fn device_churn_rebinds_query_connections() {
    use umiddle::umiddle_core::{PortKind, Query};

    let mut world = World::new(302);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );
    let light_node = world.add_node("light");
    world.attach(light_node, hub).unwrap();
    let light1 = world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Lamp One", "uuid:l1")),
            5000,
        )),
    );

    // A switch emitting every 5 s indefinitely, wired by *query* to any
    // text/plain input (dynamic device binding).
    let switch_shape = Shape::builder()
        .digital("toggle", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Switch",
            switch_shape,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "toggle",
                SimDuration::from_secs(5),
                0,
                |_| UMessage::text("1"),
            )),
        )),
    );

    struct QueryWirer {
        runtime: simnet_proc::ProcId,
        client: Option<umiddle::umiddle_core::RuntimeClient>,
        src: Option<umiddle::umiddle_core::PortRef>,
        wired: bool,
    }
    mod simnet_proc {
        pub use umiddle::simnet::ProcId;
    }
    impl umiddle::simnet::Process for QueryWirer {
        fn on_start(&mut self, ctx: &mut umiddle::simnet::Ctx<'_>) {
            let client = umiddle::umiddle_core::RuntimeClient::new(self.runtime);
            client.add_listener(ctx, Query::All);
            self.client = Some(client);
        }
        fn on_local(
            &mut self,
            ctx: &mut umiddle::simnet::Ctx<'_>,
            _from: simnet_proc::ProcId,
            msg: umiddle::simnet::LocalMessage,
        ) {
            let Ok(event) = msg.downcast::<umiddle::umiddle_core::RuntimeEvent>() else {
                return;
            };
            if let umiddle::umiddle_core::RuntimeEvent::Directory(
                umiddle::umiddle_core::DirectoryEvent::Appeared(profile),
            ) = *event
            {
                if profile.name() == "Switch" {
                    self.src = Some(umiddle::umiddle_core::PortRef::new(profile.id(), "toggle"));
                }
                if let (Some(src), false) = (self.src, self.wired) {
                    self.wired = true;
                    self.client.as_mut().expect("set").connect_query(
                        ctx,
                        src,
                        Query::has_port(
                            Direction::Input,
                            PortKind::Digital("text/plain".parse().unwrap()),
                        )
                        .and(Query::Platform("upnp".to_owned())),
                        QosPolicy::bounded_drop_newest(8192),
                    );
                }
            }
        }
    }
    world.add_process(
        h1,
        Box::new(QueryWirer {
            runtime: rt,
            client: None,
            src: None,
            wired: false,
        }),
    );

    // Phase 1: lamp one receives actions.
    world.run_until(SimTime::from_secs(30));
    let actions_before = world.trace().counter("upnp.actions");
    assert!(actions_before >= 1, "lamp one driven: {actions_before}");

    // Phase 2: lamp one dies (with byebye), replacement appears later.
    world.remove_process(light1).unwrap();
    world.run_until(SimTime::from_secs(45));
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Lamp Two", "uuid:l2")),
            5001,
        )),
    );
    world.run_until(SimTime::from_secs(90));
    let actions_after = world.trace().counter("upnp.actions");
    assert!(
        actions_after > actions_before,
        "the query connection re-bound to lamp two: {actions_before} -> {actions_after}"
    );
}

/// A lossy piconet still delivers images (stream retransmission), just
/// more slowly.
#[test]
fn lossy_piconet_still_delivers() {
    let mut world = World::new(303);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet().with_loss(0.05));
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 1, 30_000)),
    );

    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Viewer",
            recorder_shape("image/jpeg"),
            rt,
            Box::new(recorder),
        )),
    );
    let button = Shape::builder()
        .digital("press", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Trigger",
            button,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "press",
                SimDuration::from_secs(30),
                1,
                |_| UMessage::text("snap"),
            )),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt,
            vec![
                WireRule::new("Trigger", "press", "Pocket Camera", "capture"),
                WireRule::new("Pocket Camera", "image-out", "Viewer", "in"),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(180));
    let received = received.borrow();
    assert!(!received.is_empty(), "image survived 5% frame loss");
    // The 30 kB image arrived intact (stream layer reassembled it).
    assert!(
        received.iter().any(|(_, m)| m.body().len() == 30_000),
        "sizes: {:?}",
        received
            .iter()
            .map(|(_, m)| m.body().len())
            .collect::<Vec<_>>()
    );
    assert!(
        world.trace().counter("stream.rto") > 0,
        "retransmissions happened"
    );
}

/// Two federated runtimes: killing the remote one expires its
/// translators; local devices keep working.
#[test]
fn runtime_failure_is_contained() {
    let mut world = World::new(304);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    let h2 = world.add_node("h2");
    world.attach(h1, hub).unwrap();
    world.attach(h2, hub).unwrap();
    let rt1 = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    let rt2 = world.add_process(
        h2,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
    );

    // A source+sink pair on runtime 1 (local), a sink on runtime 2
    // (remote).
    let src_shape = Shape::builder()
        .digital("out", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Source",
            src_shape,
            rt1,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(2),
                0,
                |i| UMessage::text(format!("m{i}")),
            )),
        )),
    );
    let local_rec = behaviors::Recorder::new();
    let local_received = Rc::clone(&local_rec.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Local Sink",
            recorder_shape("text/plain"),
            rt1,
            Box::new(local_rec),
        )),
    );
    let remote_rec = behaviors::Recorder::new();
    let remote_received = Rc::clone(&remote_rec.received);
    world.add_process(
        h2,
        Box::new(NativeService::new(
            "Remote Sink",
            recorder_shape("text/plain"),
            rt2,
            Box::new(remote_rec),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt1,
            vec![
                WireRule::new("Source", "out", "Local Sink", "in"),
                WireRule::new("Source", "out", "Remote Sink", "in")
                    .with_qos(QosPolicy::bounded_drop_oldest(8192)),
            ],
        )),
    );

    world.run_until(SimTime::from_secs(20));
    let remote_before = remote_received.borrow().len();
    assert!(remote_before > 0, "remote sink received messages first");

    // Kill runtime 2 (and its node's sink is orphaned with it).
    world.remove_process(rt2).unwrap();
    world.run_until(SimTime::from_secs(60));

    // Local delivery never stops.
    let local_count = local_received.borrow().len();
    assert!(
        local_count >= 25,
        "local path unaffected by the remote crash: {local_count}"
    );
    // Remote deliveries stopped, and the system did not wedge.
    let remote_after = remote_received.borrow().len();
    assert!(remote_after >= remote_before);
}

/// The full evaluation harness is runnable end to end with tiny
/// parameters (smoke test for `cargo bench`).
#[test]
fn experiment_harness_smoke() {
    let rows = bench_smoke::run();
    assert!(rows > 0);
}

mod bench_smoke {
    /// Runs E1 with one repetition and checks the shape: the clock is the
    /// slowest to map.
    pub fn run() -> usize {
        let rows = bench::experiments::e1_service_level(1);
        let clock = rows
            .iter()
            .find(|r| r.device.contains("clock"))
            .expect("clock row");
        for r in &rows {
            if !r.device.contains("clock") {
                assert!(
                    clock.mean_time > r.mean_time,
                    "clock ({}) slower than {} ({})",
                    clock.mean_time,
                    r.device,
                    r.mean_time
                );
            }
        }
        rows.len()
    }
}
