//! The paper's flagship scenario: a Bluetooth BIP camera whose images
//! are rendered on a UPnP MediaRenderer TV, bridged through two uMiddle
//! runtimes on different hosts.
//!
//! Topology (paper Figure 5):
//!
//! ```text
//!   piconet:  [BIP camera] --- [H1: runtime rt0 + Bluetooth mapper]
//!   ethernet: [H1] --- [H2: runtime rt1 + UPnP mapper] --- [MediaRenderer TV]
//! ```
//!
//! A native "shutter button" service presses every 15 simulated seconds;
//! each press travels `button.press → camera.capture`, makes the camera
//! capture + pull a JPEG over OBEX, and the image travels
//! `camera.image-out → tv.media-in`, ending in a SOAP `RenderMedia` call
//! on the native TV.
//!
//! Run with: `cargo run --example camera_to_tv`

use umiddle::platform_bluetooth::BipCamera;
use umiddle::platform_upnp::{MediaRendererLogic, UpnpDevice};
use umiddle::simnet::{SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{WireRule, Wirer};
use umiddle::umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle::umiddle_core::{Direction, RuntimeConfig, RuntimeId, Shape, UMessage, UmiddleRuntime};
use umiddle::umiddle_usdl::UsdlLibrary;

fn main() {
    let mut world = World::new(7);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

    // H1: intermediary node with the Bluetooth mapper.
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt1 = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    let bt_mapper = BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled());
    let bt_stats = bt_mapper.stats_handle();
    world.add_process(h1, Box::new(bt_mapper));

    // H2: intermediary node with the UPnP mapper.
    let h2 = world.add_node("h2");
    world.attach(h2, hub).unwrap();
    let rt2 = world.add_process(
        h2,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
    );
    let upnp_mapper = UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled());
    let upnp_stats = upnp_mapper.stats_handle();
    world.add_process(h2, Box::new(upnp_mapper));

    // The native devices on their own platforms.
    let cam_node = world.add_node("camera");
    world.attach(cam_node, pico).unwrap();
    world.add_process(
        cam_node,
        Box::new(BipCamera::new("Pocket Camera", 3, 24_000)),
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

    // The shutter button (a native uMiddle service on H1).
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
                SimDuration::from_secs(15),
                4,
                |_| UMessage::text("snap"),
            )),
        )),
    );

    // Virtual cabling.
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

    println!("camera-to-tv: the paper's flagship cross-platform scenario");
    println!("------------------------------------------------------------");
    for (ty, name, took) in &bt_stats.borrow().mappings {
        println!("bluetooth mapper: mapped {name} ({ty}) in {took}");
    }
    for (ty, name, took) in &upnp_stats.borrow().mappings {
        println!("upnp mapper     : mapped {name} ({ty}) in {took}");
    }
    println!(
        "camera captures triggered        : {}",
        world.trace().counter("bt.bip_captures")
    );
    println!(
        "images pulled over OBEX          : {}",
        world.trace().counter("bt.bip_pulls")
    );
    println!(
        "RenderMedia actions on the TV    : {}",
        world.trace().counter("upnp.actions")
    );
    println!(
        "path messages across runtimes    : {}",
        world.trace().counter("stream.frames")
    );
    assert!(world.trace().counter("upnp.actions") >= 1);
    println!("ok: Bluetooth images rendered on the UPnP TV through uMiddle");
}
