//! The grand tour: every platform the paper bridges, in one world, one
//! federation, one directory.

use std::rc::Rc;

use umiddle::platform_bluetooth::{BipCamera, HidpMouse, MouseConfig};
use umiddle::platform_mediabroker::{MbFrame, MediaBroker, BROKER_PORT};
use umiddle::platform_motes::{BaseStation, Mote};
use umiddle::platform_rmi::{RmiObjectServer, RmiRegistry, REGISTRY_PORT};
use umiddle::platform_upnp::{ClockLogic, LightLogic, MediaRendererLogic, UpnpDevice};
use umiddle::platform_webservices::WsServer;
use umiddle::simnet::{Addr, Ctx, Process, SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{Pads, WireRule, Wirer};
use umiddle::umiddle_bridges::{
    behaviors, BluetoothMapper, MediaBrokerMapper, MotesMapper, NativeService, RmiMapper,
    UpnpMapper, WsMapper,
};
use umiddle::umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UmiddleRuntime};
use umiddle::umiddle_usdl::UsdlLibrary;

/// Builds one smart space containing all six platforms plus native
/// services, lets it converge, and verifies the unified view.
#[test]
fn all_six_platforms_one_directory() {
    let mut world = World::new(777);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let radio = world.add_segment(SegmentConfig::mote_radio());

    // Two intermediary nodes sharing the federation.
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    world.attach(h1, radio).unwrap();
    let rt1 = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    let h2 = world.add_node("h2");
    world.attach(h2, hub).unwrap();
    let rt2 = world.add_process(
        h2,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
    );

    // --- UPnP: three devices, mapped on h2 ---
    let upnp_node = world.add_node("upnp");
    world.attach(upnp_node, hub).unwrap();
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(ClockLogic::new("Clock", "uuid:c")),
            5000,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Light", "uuid:l")),
            5001,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(MediaRendererLogic::new("TV", "uuid:tv")),
            5002,
        )),
    );
    world.add_process(
        h2,
        Box::new(UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled())),
    );

    // --- Bluetooth: camera + mouse, mapped on h1 ---
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(cam_node, Box::new(BipCamera::new("Camera", 1, 6_000)));
    let mouse_node = world.add_node("mouse");
    world.attach(mouse_node, pico).unwrap();
    world.add_process(
        mouse_node,
        Box::new(HidpMouse::new(MouseConfig {
            name: "Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(700)),
            motion_interval: None,
            click_limit: 0,
        })),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled())),
    );

    // --- RMI: registry + echo, mapped on h2 ---
    let rmi_node = world.add_node("rmi");
    world.attach(rmi_node, hub).unwrap();
    world.add_process(rmi_node, Box::new(RmiRegistry::new()));
    let registry = Addr::new(rmi_node, REGISTRY_PORT);
    world.add_process(rmi_node, Box::new(RmiObjectServer::echo(2099, registry)));
    world.add_process(
        h2,
        Box::new(RmiMapper::new(
            rt2,
            UsdlLibrary::bundled(),
            registry,
            vec!["EchoService".to_owned()],
        )),
    );

    // --- MediaBroker: broker + one raw producer channel, mapped on h2 ---
    let mb_node = world.add_node("mb");
    world.attach(mb_node, hub).unwrap();
    world.add_process(mb_node, Box::new(MediaBroker::new()));
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
            stream: umiddle::simnet::StreamId,
            event: umiddle::simnet::StreamEvent,
        ) {
            if matches!(event, umiddle::simnet::StreamEvent::Connected) {
                let _ = ctx.stream_send(
                    stream,
                    MbFrame::Produce {
                        channel: "feed".to_owned(),
                        media_type: "application/octet-stream".to_owned(),
                    }
                    .encode_framed(),
                );
            }
        }
    }
    let broker = Addr::new(mb_node, BROKER_PORT);
    world.add_process(mb_node, Box::new(RawProducer { broker }));
    world.add_process(
        h2,
        Box::new(MediaBrokerMapper::new(
            rt2,
            UsdlLibrary::bundled(),
            broker,
            vec![],
        )),
    );

    // --- Motes: two sensors + base station, mapped on h1 ---
    for i in 0..2u16 {
        let m_node = world.add_node(format!("mote{i}"));
        world.attach(m_node, radio).unwrap();
        world.add_process(
            m_node,
            Box::new(Mote::new(i + 1, SimDuration::from_secs(3))),
        );
    }
    let motes_mapper = MotesMapper::new(rt1, UsdlLibrary::bundled(), None);
    let motes_proc = world.add_process(h1, Box::new(motes_mapper));
    world.add_process(h1, Box::new(BaseStation::new(Some(motes_proc))));

    // --- Web services: a logger, mapped on h1 ---
    let ws_node = world.add_node("ws");
    world.attach(ws_node, hub).unwrap();
    world.add_process(ws_node, Box::new(WsServer::logger("Journal", 8080)));
    world.add_process(
        h1,
        Box::new(WsMapper::new(
            rt1,
            UsdlLibrary::bundled(),
            vec![Addr::new(ws_node, 8080)],
        )),
    );

    // --- Native: a click counter fed by the mouse ---
    let recorder = behaviors::Recorder::new();
    let clicks = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Click Counter",
            Shape::builder()
                .digital("in", Direction::Input, "text/plain".parse().unwrap())
                .build()
                .unwrap(),
            rt1,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt1,
            vec![
                // Cross-platform wiring sampled from the directory:
                WireRule::new("Mouse", "clicks", "Click Counter", "in"),
                WireRule::new("Mote 1", "temperature", "Journal", "log-in"),
            ],
        )),
    );

    // Pads watches the whole federation from h2.
    let pads = Pads::new(rt2);
    let canvas = pads.canvas_handle();
    world.add_process(h2, Box::new(pads));

    world.run_until(SimTime::from_secs(120));

    // Every platform contributed at least one icon to the unified view.
    let canvas = canvas.borrow();
    let platforms: std::collections::BTreeSet<String> = canvas
        .icons
        .iter()
        .map(|i| i.profile.platform().to_owned())
        .collect();
    assert!(
        [
            "bluetooth",
            "mediabroker",
            "motes",
            "rmi",
            "upnp",
            "umiddle",
            "webservices"
        ]
        .iter()
        .all(|p| platforms.contains(*p)),
        "platforms in the directory: {platforms:?}\n{}",
        canvas.render_ascii()
    );
    // 3 UPnP + 2 BT + 1 RMI + 1 MB + 2 motes + 1 WS + 1 native = 11+.
    assert!(
        canvas.icons.len() >= 11,
        "icon count {}:\n{}",
        canvas.icons.len(),
        canvas.render_ascii()
    );
    // Cross-platform flows ran.
    assert!(
        !clicks.borrow().is_empty(),
        "mouse clicks crossed the bridge"
    );
    assert!(
        world.trace().counter("ws.calls") >= 1,
        "mote readings reached the web service"
    );

    // Print the unified canvas for posterity when running with
    // `--nocapture`.
    println!("{}", canvas.render_ascii());
}
