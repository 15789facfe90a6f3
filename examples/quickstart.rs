//! Quickstart: control a UPnP light through uMiddle.
//!
//! Builds a tiny simulated smart space — one UPnP light on a 10 Mbps
//! hub, one uMiddle runtime with a UPnP mapper, and a native "wall
//! switch" service — wires the switch to the light through the
//! intermediary semantic space, and watches the light's state events
//! come back.
//!
//! Run with: `cargo run --example quickstart`

use std::rc::Rc;

use umiddle::platform_upnp::{LightLogic, UpnpDevice};
use umiddle::simnet::{SegmentConfig, SimDuration, SimTime, World};
use umiddle::umiddle_apps::{WireRule, Wirer};
use umiddle::umiddle_bridges::{behaviors, NativeService, UpnpMapper};
use umiddle::umiddle_core::{
    Direction, QosPolicy, RuntimeConfig, RuntimeId, Shape, UMessage, UmiddleRuntime,
};
use umiddle::umiddle_usdl::UsdlLibrary;

fn main() {
    // 1. A simulated network: one Ethernet hub.
    let mut world = World::new(42);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());

    // 2. The uMiddle host: runtime + UPnP mapper.
    let host = world.add_node("umiddle-host");
    world.attach(host, hub).unwrap();
    let runtime = world.add_process(
        host,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    world.add_process(
        host,
        Box::new(UpnpMapper::with_defaults(runtime, UsdlLibrary::bundled())),
    );

    // 3. A native UPnP light somewhere on the network.
    let light_node = world.add_node("light");
    world.attach(light_node, hub).unwrap();
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Hallway Light", "uuid:hallway")),
            5000,
        )),
    );

    // 4. A native uMiddle wall switch that pulses "1" every 10 seconds.
    let switch_shape = Shape::builder()
        .digital("toggle", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        host,
        Box::new(NativeService::new(
            "Wall Switch",
            switch_shape,
            runtime,
            Box::new(behaviors::PeriodicSource::new(
                "toggle",
                SimDuration::from_secs(10),
                3,
                |_| UMessage::text("1"),
            )),
        )),
    );

    // 5. A recorder watching the light's power-state output.
    let recorder = behaviors::Recorder::new();
    let received = Rc::clone(&recorder.received);
    let recorder_shape = Shape::builder()
        .digital("in", Direction::Input, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        host,
        Box::new(NativeService::new(
            "State Recorder",
            recorder_shape,
            runtime,
            Box::new(recorder),
        )),
    );

    // 6. Wire switch → light and light → recorder once both appear.
    world.add_process(
        host,
        Box::new(Wirer::new(
            runtime,
            vec![
                WireRule::new("Wall Switch", "toggle", "Hallway Light", "switch-on")
                    .with_qos(QosPolicy::unbounded()),
                WireRule::new("Hallway Light", "power-state", "State Recorder", "in"),
            ],
        )),
    );

    // 7. Run one simulated minute.
    world.run_until(SimTime::from_secs(60));

    println!("quickstart: controlling a UPnP light through uMiddle");
    println!("-----------------------------------------------------");
    println!(
        "SetPower actions executed on the native light : {}",
        world.trace().counter("upnp.actions")
    );
    println!(
        "GENA events translated back into uMiddle      : {}",
        world.trace().counter("upnp.notifies")
    );
    for (port, msg) in received.borrow().iter() {
        println!("recorder <- {port}: {:?}", msg.body_text().unwrap_or("?"));
    }

    // The observability layer watched the whole run: the runtime's own
    // metric scope, and a span trail for every message path.
    println!();
    println!("runtime rt0 metrics:");
    for (name, v) in world.trace().metrics().scoped("rt0").counters() {
        println!("  {name:22} {v}");
    }
    if let Some(corr) = world.trace().spans().iter().map(|s| s.corr).next() {
        println!("one path, reconstructed by correlation id {corr:#x}:");
        for span in world.trace().spans_for(corr).take(6) {
            println!(
                "  {:>12}  {:<16} {}",
                span.start.to_string(),
                span.stage,
                span.detail
            );
        }
    }
    assert!(
        received
            .borrow()
            .iter()
            .any(|(_, m)| m.body_text() == Some("1")),
        "the light reported power-state=1"
    );
    println!("ok: the switch controls the light across the UPnP bridge");
}
