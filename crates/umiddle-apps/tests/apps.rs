//! Integration tests for the paper's applications: the Pads scenario
//! with twenty-two devices (Figure 8) and the G2 UI atlas scenario
//! (Figure 9).

use std::cell::RefCell;
use std::rc::Rc;

use platform_bluetooth::BipCamera;
use platform_upnp::{AirconLogic, ClockLogic, LightLogic, MediaRendererLogic, UpnpDevice};
use simnet::{SegmentConfig, SimDuration, SimTime, World};
use umiddle_apps::{At, Atlas, Canvas, G2Command, G2Ui, GeoKind, Pads, PadsCommand, Position};
use umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UMessage, UmiddleRuntime};
use umiddle_usdl::UsdlLibrary;

fn native_shape_out(mime: &str) -> Shape {
    Shape::builder()
        .digital("out", Direction::Output, mime.parse().unwrap())
        .build()
        .unwrap()
}

fn native_shape_in(mime: &str) -> Shape {
    Shape::builder()
        .digital("in", Direction::Input, mime.parse().unwrap())
        .build()
        .unwrap()
}

/// The Figure-8 configuration: twenty-two devices — one Bluetooth, three
/// UPnP, eighteen native uMiddle services — all visible as Pads icons,
/// with working hot-wiring.
#[test]
fn pads_with_twenty_two_devices() {
    let mut world = World::new(201);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );

    // One Bluetooth device.
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 1, 8_000)),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Three UPnP devices.
    let upnp_node = world.add_node("upnp-devices");
    world.attach(upnp_node, hub).unwrap();
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(ClockLogic::new("Wall Clock", "uuid:clk")),
            5000,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Desk Light", "uuid:lgt")),
            5001,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(AirconLogic::new("Window AC", "uuid:ac")),
            5002,
        )),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Eighteen native uMiddle services.
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "native-sink-0",
            native_shape_in("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "native-src-0",
            native_shape_out("text/plain"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(5),
                0,
                |i| UMessage::text(format!("tick {i}")),
            )),
        )),
    );
    for i in 1..9 {
        world.add_process(
            h1,
            Box::new(NativeService::new(
                &format!("native-src-{i}"),
                native_shape_out("text/plain"),
                rt,
                Box::new(behaviors::Echo::new("out")),
            )),
        );
        world.add_process(
            h1,
            Box::new(NativeService::new(
                &format!("native-sink-{i}"),
                native_shape_in("text/plain"),
                rt,
                Box::new(behaviors::Recorder::new()),
            )),
        );
    }

    // Pads itself.
    let pads = Pads::new(rt);
    let canvas: Rc<RefCell<Canvas>> = pads.canvas_handle();
    let pads_proc = world.add_process(h1, Box::new(pads));

    // Hot-wire: the periodic source into sink 0 (drawn early; Pads defers
    // until both icons exist), and an invalid wire that must be rejected.
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(1),
            to: pads_proc,
            what: PadsCommand::DrawWire {
                src_name: "native-src-0".to_owned(),
                src_port: "out".to_owned(),
                dst_name: "native-sink-0".to_owned(),
                dst_port: "in".to_owned(),
            },
        }),
    );
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(20),
            to: pads_proc,
            what: PadsCommand::DrawWire {
                src_name: "native-sink-0".to_owned(), // an input, not an output
                src_port: "in".to_owned(),
                dst_name: "native-src-0".to_owned(),
                dst_port: "out".to_owned(),
            },
        }),
    );

    world.run_until(SimTime::from_secs(60));
    let canvas = canvas.borrow();
    assert_eq!(
        canvas.icons.len(),
        22,
        "twenty-two icons:\n{}",
        canvas.render_ascii()
    );
    // The valid wire was established...
    assert_eq!(canvas.wires.len(), 1);
    assert!(canvas.wires[0].connection.is_some());
    // ...and messages flow through it.
    assert!(!received.borrow().is_empty(), "sink received ticks");
    // The invalid wire was rejected with a reason.
    assert_eq!(canvas.rejected.len(), 1);
    assert!(canvas.rejected[0].2.contains("not an output"));
    // Icon census matches the paper: 1 bluetooth + 3 upnp + 18 native.
    let by_platform = |p: &str| {
        canvas
            .icons
            .iter()
            .filter(|i| i.profile.platform() == p)
            .count()
    };
    assert_eq!(by_platform("bluetooth"), 1);
    assert_eq!(by_platform("upnp"), 3);
    assert_eq!(by_platform("umiddle"), 18);
}

/// The Figure-9 scenario: co-locating a camera and a TV triggers
/// geoplay; moving them apart tears it down; a storage gadget triggers
/// geostore.
#[test]
fn g2ui_geoplay_and_geostore() {
    let mut world = World::new(202);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );

    // Camera (Bluetooth) and TV (UPnP).
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 1, 8_000)),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
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
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // A native storage album.
    let album_shape = Shape::builder()
        .digital("store-in", Direction::Input, "image/*".parse().unwrap())
        .build()
        .unwrap();
    let album_recorder = behaviors::Recorder::new();
    let album_received = Rc::clone(&album_recorder.received);
    world.add_process(
        h1,
        Box::new(
            NativeService::new("Photo Album", album_shape, rt, Box::new(album_recorder))
                .with_attr("category", "storage"),
        ),
    );
    let _ = album_received;

    let g2 = G2Ui::new(rt, 5.0);
    let atlas: Rc<RefCell<Atlas>> = g2.atlas_handle();
    let g2_proc = world.add_process(h1, Box::new(g2));

    // Timeline: place TV at origin; camera near it (co-located) at 30 s;
    // move camera away at 60 s; co-locate camera with the album at 70 s.
    for (when, cmd) in [
        (
            25,
            G2Command::Place {
                name: "Living Room TV".to_owned(),
                position: Position::new(0.0, 0.0),
            },
        ),
        (
            30,
            G2Command::Place {
                name: "Pocket Camera".to_owned(),
                position: Position::new(2.0, 1.0),
            },
        ),
        (
            60,
            G2Command::Place {
                name: "Pocket Camera".to_owned(),
                position: Position::new(100.0, 100.0),
            },
        ),
        (
            70,
            G2Command::Place {
                name: "Photo Album".to_owned(),
                position: Position::new(99.0, 100.0),
            },
        ),
    ] {
        world.add_process(
            h1,
            Box::new(At {
                when: SimDuration::from_secs(when),
                to: g2_proc,
                what: cmd,
            }),
        );
    }

    world.run_until(SimTime::from_secs(50));
    {
        let atlas = atlas.borrow();
        assert_eq!(atlas.compositions.len(), 1, "log: {:?}", atlas.log);
        assert_eq!(atlas.compositions[0].kind, GeoKind::Geoplay);
        assert!(atlas.compositions[0].connection.is_some());
    }

    world.run_until(SimTime::from_secs(65));
    {
        let atlas = atlas.borrow();
        assert!(
            atlas.compositions.is_empty(),
            "geoplay torn down after the move: {:?}",
            atlas.log
        );
    }

    world.run_until(SimTime::from_secs(90));
    {
        let atlas = atlas.borrow();
        assert_eq!(atlas.compositions.len(), 1, "log: {:?}", atlas.log);
        assert_eq!(atlas.compositions[0].kind, GeoKind::Geostore);
    }
}

/// Removing a wire disconnects the underlying path: messages stop.
#[test]
fn pads_remove_wire_stops_flow() {
    let mut world = World::new(203);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "ticker",
            native_shape_out("text/plain"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(2),
                0,
                |i| UMessage::text(format!("t{i}")),
            )),
        )),
    );
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "deck",
            native_shape_in("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );
    let pads = Pads::new(rt);
    let canvas = pads.canvas_handle();
    let pads_proc = world.add_process(h1, Box::new(pads));
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(1),
            to: pads_proc,
            what: PadsCommand::DrawWire {
                src_name: "ticker".to_owned(),
                src_port: "out".to_owned(),
                dst_name: "deck".to_owned(),
                dst_port: "in".to_owned(),
            },
        }),
    );
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(21),
            to: pads_proc,
            what: PadsCommand::RemoveWire { index: 0 },
        }),
    );
    world.run_until(SimTime::from_secs(60));
    let n = received.borrow().len();
    // ~9 ticks before removal at t=21; nothing after (small slack).
    assert!((8..=11).contains(&n), "flow stopped after RemoveWire: {n}");
    assert!(canvas.borrow().wires.is_empty(), "wire removed from canvas");
}

/// Removing a gadget from the atlas tears down its compositions.
#[test]
fn g2ui_remove_gadget_tears_down() {
    let mut world = World::new(204);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    // Native camera (capture role) and album (storage role).
    let cam_shape = Shape::builder()
        .digital(
            "image-out",
            Direction::Output,
            "image/jpeg".parse().unwrap(),
        )
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Cam",
            cam_shape,
            rt,
            Box::new(behaviors::Recorder::new()),
        )),
    );
    let album_shape = Shape::builder()
        .digital("store-in", Direction::Input, "image/*".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(
            NativeService::new(
                "Album",
                album_shape,
                rt,
                Box::new(behaviors::Recorder::new()),
            )
            .with_attr("category", "storage"),
        ),
    );
    let g2 = G2Ui::new(rt, 5.0);
    let atlas = g2.atlas_handle();
    let g2_proc = world.add_process(h1, Box::new(g2));
    for (when, cmd) in [
        (
            5,
            G2Command::Place {
                name: "Cam".to_owned(),
                position: Position::new(0.0, 0.0),
            },
        ),
        (
            6,
            G2Command::Place {
                name: "Album".to_owned(),
                position: Position::new(1.0, 0.0),
            },
        ),
        (
            20,
            G2Command::Remove {
                name: "Album".to_owned(),
            },
        ),
    ] {
        world.add_process(
            h1,
            Box::new(At {
                when: SimDuration::from_secs(when),
                to: g2_proc,
                what: cmd,
            }),
        );
    }
    world.run_until(SimTime::from_secs(15));
    assert_eq!(
        atlas.borrow().compositions.len(),
        1,
        "{:?}",
        atlas.borrow().log
    );
    world.run_until(SimTime::from_secs(30));
    assert!(
        atlas.borrow().compositions.is_empty(),
        "{:?}",
        atlas.borrow().log
    );
}
