//! G2 UI: the geographical user interface (paper §4.2, Figure 9),
//! headless.
//!
//! Gadgets are placed at coordinates; co-location triggers cross-platform
//! compositions. Here a Bluetooth camera is carried next to a UPnP TV
//! (geoplay), then across the room to a native photo album (geostore).
//!
//! Run with: `cargo run --example g2ui_atlas`

use std::rc::Rc;

use umiddle::platform_bluetooth::BipCamera;
use umiddle::platform_upnp::{MediaRendererLogic, UpnpDevice};
use umiddle::simnet::{SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{At, G2Command, G2Ui, Position};
use umiddle::umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle::umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UmiddleRuntime};
use umiddle::umiddle_usdl::UsdlLibrary;

fn main() {
    let mut world = World::new(13);
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

    // Gadgets: camera (Bluetooth), TV (UPnP), album (native storage).
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 2, 12_000)),
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
    let album_shape = Shape::builder()
        .digital("store-in", Direction::Input, "image/*".parse().unwrap())
        .build()
        .unwrap();
    let album = behaviors::Recorder::new();
    let album_received = Rc::clone(&album.received);
    world.add_process(
        h1,
        Box::new(
            NativeService::new("Photo Album", album_shape, rt, Box::new(album))
                .with_attr("category", "storage"),
        ),
    );

    // G2 UI with a 5-meter co-location radius.
    let g2 = G2Ui::new(rt, 5.0);
    let atlas = g2.atlas_handle();
    let g2_proc = world.add_process(h1, Box::new(g2));

    // Scripted movements.
    let script = [
        (20, "Living Room TV", 0.0, 0.0),
        (25, "Pocket Camera", 2.0, 1.0),   // next to the TV: geoplay
        (55, "Pocket Camera", 80.0, 40.0), // carried away: teardown
        (60, "Photo Album", 81.0, 40.0),   // next to the camera: geostore
    ];
    for (when, name, x, y) in script {
        world.add_process(
            h1,
            Box::new(At {
                when: SimDuration::from_secs(when),
                to: g2_proc,
                what: G2Command::Place {
                    name: name.to_owned(),
                    position: Position::new(x, y),
                },
            }),
        );
    }

    world.run_until(SimTime::from_secs(90));

    println!("G2 UI atlas: co-location driven composition");
    println!("--------------------------------------------");
    let atlas = atlas.borrow();
    for line in &atlas.log {
        println!("  {line}");
    }
    println!("\nactive compositions at the end:");
    for c in &atlas.compositions {
        println!("  {:?}: {} -> {}", c.kind, c.src, c.dst);
    }
    println!(
        "album stored {} images so far",
        album_received.borrow().len()
    );
    assert!(
        atlas.log.iter().any(|l| l.contains("Geoplay")),
        "geoplay happened"
    );
    assert!(
        atlas.log.iter().any(|l| l.contains("Geostore")),
        "geostore happened"
    );
    println!("ok: geoplay and geostore across three platforms");
}
