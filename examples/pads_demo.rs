//! uMiddle Pads: the virtual-cabling application generator (paper §4.1,
//! Figure 8), headless.
//!
//! Recreates the paper's screenshot configuration — twenty-two devices:
//! one Bluetooth camera, three UPnP devices (clock, light, air
//! conditioner) and eighteen native uMiddle services — then hot-wires a
//! few of them and prints the canvas.
//!
//! Run with: `cargo run --example pads_demo`

use std::cell::RefCell;
use std::rc::Rc;

use umiddle::platform_bluetooth::BipCamera;
use umiddle::platform_upnp::{AirconLogic, ClockLogic, LightLogic, UpnpDevice};
use umiddle::simnet::{SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{At, Canvas, Pads, PadsCommand};
use umiddle::umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle::umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UMessage, UmiddleRuntime};
use umiddle::umiddle_usdl::UsdlLibrary;

/// Sends a command to a process at a fixed virtual time.
fn out_shape(mime: &str) -> Shape {
    Shape::builder()
        .digital("out", Direction::Output, mime.parse().unwrap())
        .build()
        .unwrap()
}

fn in_shape(mime: &str) -> Shape {
    Shape::builder()
        .digital("in", Direction::Input, mime.parse().unwrap())
        .build()
        .unwrap()
}

fn main() {
    let mut world = World::new(11);
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
    let upnp_node = world.add_node("upnp");
    world.attach(upnp_node, hub).unwrap();
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(ClockLogic::new("Wall Clock", "uuid:c")),
            5000,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Desk Light", "uuid:l")),
            5001,
        )),
    );
    world.add_process(
        upnp_node,
        Box::new(UpnpDevice::new(
            Box::new(AirconLogic::new("Window AC", "uuid:a")),
            5002,
        )),
    );
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Eighteen native uMiddle services: a ticker, a recorder, and
    // sixteen assorted echoes/sinks.
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "ticker",
            out_shape("text/plain"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(5),
                0,
                |i| UMessage::text(format!("tick {i}")),
            )),
        )),
    );
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "tape-deck",
            in_shape("text/plain"),
            rt,
            Box::new(recorder),
        )),
    );
    for i in 0..8 {
        world.add_process(
            h1,
            Box::new(NativeService::new(
                &format!("echo-{i}"),
                out_shape("text/plain"),
                rt,
                Box::new(behaviors::Echo::new("out")),
            )),
        );
        world.add_process(
            h1,
            Box::new(NativeService::new(
                &format!("sink-{i}"),
                in_shape("text/plain"),
                rt,
                Box::new(behaviors::Recorder::new()),
            )),
        );
    }

    // Pads.
    let pads = Pads::new(rt);
    let canvas: Rc<RefCell<Canvas>> = pads.canvas_handle();
    let pads_proc = world.add_process(h1, Box::new(pads));

    // "Draw" wires (deferred by Pads until the icons exist).
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(2),
            to: pads_proc,
            what: PadsCommand::DrawWire {
                src_name: "ticker".to_owned(),
                src_port: "out".to_owned(),
                dst_name: "tape-deck".to_owned(),
                dst_port: "in".to_owned(),
            },
        }),
    );
    // An invalid wire, to show the GUI-level validation.
    world.add_process(
        h1,
        Box::new(At {
            when: SimDuration::from_secs(20),
            to: pads_proc,
            what: PadsCommand::DrawWire {
                src_name: "tape-deck".to_owned(),
                src_port: "in".to_owned(),
                dst_name: "ticker".to_owned(),
                dst_port: "out".to_owned(),
            },
        }),
    );

    world.run_until(SimTime::from_secs(60));

    let canvas = canvas.borrow();
    println!("{}", canvas.render_ascii());
    println!("rejected wiring attempts:");
    for (src, dst, why) in &canvas.rejected {
        println!("  {src} -> {dst}: {why}");
    }
    println!(
        "\nmessages delivered over the drawn wire: {}",
        received.borrow().len()
    );
    assert_eq!(canvas.icons.len(), 22, "the paper's twenty-two devices");
    assert!(!received.borrow().is_empty());
    println!(
        "ok: cross-platform virtual cabling with {} icons",
        canvas.icons.len()
    );
}
