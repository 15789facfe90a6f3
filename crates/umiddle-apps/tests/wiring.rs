//! The wiring helper's contract: fan rules wire the full source ×
//! destination cross product in arrival order, a repeated `Appeared`
//! wires nothing, and a rule's QoS policy reaches the path.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{
    Ctx, LocalMessage, NodeId, ProcId, Process, SegmentConfig, SimDuration, SimTime, World,
};
use umiddle_apps::{WireRule, Wirer};
use umiddle_bridges::{behaviors, NativeService};
use umiddle_core::{
    Direction, DirectoryEvent, QosPolicy, Query, RuntimeClient, RuntimeConfig, RuntimeEvent,
    RuntimeId, RuntimeStats, Shape, UMessage, UmiddleRuntime,
};

/// A one-host world with runtime `rt0`, plus the runtime's stats.
fn world_with_runtime(seed: u64) -> (World, NodeId, ProcId, Rc<RefCell<RuntimeStats>>) {
    let mut world = World::new(seed);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let node = world.add_node("host");
    world.attach(node, hub).unwrap();
    let runtime = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)));
    let stats = runtime.stats_handle();
    let rt = world.add_process(node, Box::new(runtime));
    (world, node, rt, stats)
}

fn shape(port: &str, direction: Direction) -> Shape {
    Shape::builder()
        .digital(port, direction, "text/plain".parse().unwrap())
        .build()
        .unwrap()
}

/// Registers a passive native service with one text port.
fn add_service(
    world: &mut World,
    node: NodeId,
    rt: ProcId,
    name: &str,
    port: &str,
    dir: Direction,
) {
    world.add_process(
        node,
        Box::new(NativeService::new(
            name,
            shape(port, dir),
            rt,
            Box::new(behaviors::Recorder::new()),
        )),
    );
}

fn opened(world: &World) -> u64 {
    world.trace().counter("rt0.connections_opened")
}

#[test]
fn fan_rule_wires_the_cross_product_in_arrival_order() {
    let (mut world, node, rt, _) = world_with_runtime(1);
    world.add_process(
        node,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new("Src", "out", "Sink", "in")],
        )),
    );
    // A destination first: nothing to wire yet.
    add_service(&mut world, node, rt, "Sink X", "in", Direction::Input);
    add_service(&mut world, node, rt, "Bystander", "in", Direction::Input);
    world.run_until(SimTime::from_secs(1));
    assert_eq!(opened(&world), 0);
    // Two sources join the existing destination.
    add_service(&mut world, node, rt, "Src A", "out", Direction::Output);
    add_service(&mut world, node, rt, "Src B", "out", Direction::Output);
    world.run_until(SimTime::from_secs(2));
    assert_eq!(opened(&world), 2);
    // A late destination joins both sources.
    add_service(&mut world, node, rt, "Sink Y", "in", Direction::Input);
    world.run_until(SimTime::from_secs(3));
    assert_eq!(opened(&world), 4);
    // A late source joins both destinations: 3 × 2, the Bystander never.
    add_service(&mut world, node, rt, "Src C", "out", Direction::Output);
    world.run_until(SimTime::from_secs(4));
    assert_eq!(opened(&world), 6);
}

/// Forwards every `Appeared` it hears to the wirer, so the wirer sees
/// each translator twice.
struct Replayer {
    runtime: ProcId,
    wirer: ProcId,
}

impl Process for Replayer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        RuntimeClient::new(self.runtime).add_listener(ctx, Query::All);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        if let RuntimeEvent::Directory(DirectoryEvent::Appeared(_)) = *event {
            ctx.send_local(self.wirer, *event);
        }
    }
}

#[test]
fn repeated_appeared_issues_no_second_connect() {
    let (mut world, node, rt, _) = world_with_runtime(2);
    let wirer = world.add_process(
        node,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new("Src", "out", "Sink", "in")],
        )),
    );
    world.add_process(node, Box::new(Replayer { runtime: rt, wirer }));
    add_service(&mut world, node, rt, "Src A", "out", Direction::Output);
    world.run_until(SimTime::from_secs(1));
    add_service(&mut world, node, rt, "Sink X", "in", Direction::Input);
    world.run_until(SimTime::from_secs(2));
    assert_eq!(opened(&world), 1);
}

#[test]
fn rule_qos_reaches_the_path() {
    let capacity = 4 * 1024;
    let (mut world, node, rt, stats) = world_with_runtime(3);
    world.add_process(
        node,
        Box::new(NativeService::new(
            "Fast Producer",
            shape("out", Direction::Output),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_millis(5),
                400,
                |_| UMessage::new("text/plain".parse().unwrap(), vec![b'x'; 1000]),
            )),
        )),
    );
    let mut consumer = behaviors::Echo::new("unused-out");
    consumer.cost = SimDuration::from_millis(50);
    world.add_process(
        node,
        Box::new(NativeService::new(
            "Slow Consumer",
            Shape::builder()
                .digital("in", Direction::Input, "text/plain".parse().unwrap())
                .digital(
                    "unused-out",
                    Direction::Output,
                    "text/plain".parse().unwrap(),
                )
                .build()
                .unwrap(),
            rt,
            Box::new(consumer),
        )),
    );
    world.add_process(
        node,
        Box::new(Wirer::new(
            rt,
            vec![WireRule::new("Fast Producer", "out", "Slow Consumer", "in")
                .with_qos(QosPolicy::bounded_drop_newest(capacity))],
        )),
    );
    world.run_until(SimTime::from_secs(10));
    let stats = *stats.borrow();
    assert!(stats.qos_dropped > 0, "a bounded path must drop: {stats:?}");
    assert!(
        stats.max_buffered_bytes <= capacity,
        "the path buffered past its bound: {stats:?}"
    );
}
