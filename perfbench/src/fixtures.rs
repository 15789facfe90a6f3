//! The benchmark's own processes: a rule-driven wirer, a paced
//! MediaBroker producer and a counting sink, plus the shared tallies
//! they report into. They use only the public APIs (`Process`,
//! `RuntimeClient`, the MediaBroker codec).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simnet::{
    Addr, Ctx, LocalMessage, NodeId, ProcId, Process, SegmentId, SimDuration, StreamEvent,
    StreamId, World,
};
use umiddle_bridges::{NativeBehavior, NativeEnv};
use umiddle_core::{
    DirectoryEvent, PortRef, QosPolicy, Query, RuntimeClient, RuntimeConfig, RuntimeEvent,
    RuntimeId, RuntimeStats, TranslatorId, UMessage, UmiddleRuntime,
};

use crate::ledger::{Tracer, RUNTIME};

/// Outcomes the benchmark's processes observe, shared with the driver.
#[derive(Debug, Default)]
pub struct Tally {
    /// `ConnectFailed` replies received.
    pub connect_failed: Cell<u64>,
    /// Messages delivered to counting sinks.
    pub delivered: Cell<u64>,
    /// Registrations acknowledged (`Registered`).
    pub registered: Cell<u64>,
    /// Unregistrations acknowledged (own `Disappeared`).
    pub unregistered: Cell<u64>,
    /// Lookups issued.
    pub lookups_sent: Cell<u64>,
    /// Lookups answered (`LookupResult`).
    pub lookups_answered: Cell<u64>,
    /// Query-connection bindings made (`PathBound`).
    pub bound: Cell<u64>,
}

/// Adds `n` to a tally cell.
pub fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// Adds a node attached to `segments`, with its own runtime; returns
/// the node, the runtime and the runtime's stats handle.
pub fn runtime_node(
    world: &mut World,
    tracer: &Tracer,
    name: &str,
    id: u32,
    segments: &[SegmentId],
) -> (NodeId, ProcId, Rc<RefCell<RuntimeStats>>) {
    let node = world.add_node(name);
    for s in segments {
        world.attach(node, *s).expect("attach");
    }
    let runtime = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(id)));
    let stats = runtime.stats_handle();
    let rt = tracer.add(world, node, RUNTIME, Box::new(runtime));
    (node, rt, stats)
}

/// One wiring rule: connect every translator whose name contains
/// `src_tag` to every translator whose name contains `dst_tag`.
pub struct FanRule {
    /// Source name substring.
    pub src_tag: &'static str,
    /// Source output port.
    pub src_port: &'static str,
    /// Destination name substring.
    pub dst_tag: &'static str,
    /// Destination input port.
    pub dst_port: &'static str,
    /// QoS of the paths.
    pub qos: QosPolicy,
}

impl FanRule {
    /// A rule with unbounded QoS.
    pub fn new(
        src_tag: &'static str,
        src_port: &'static str,
        dst_tag: &'static str,
        dst_port: &'static str,
    ) -> FanRule {
        FanRule {
            src_tag,
            src_port,
            dst_tag,
            dst_port,
            qos: QosPolicy::unbounded(),
        }
    }

    /// Overrides the QoS policy.
    pub fn with_qos(mut self, qos: QosPolicy) -> FanRule {
        self.qos = qos;
        self
    }
}

/// Watches the directory and connects the cross product of each rule's
/// sources and destinations as they appear.
pub struct FanWirer {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    rules: Vec<FanRule>,
    srcs: Vec<Vec<TranslatorId>>,
    dsts: Vec<Vec<TranslatorId>>,
    tally: Rc<Tally>,
}

impl FanWirer {
    /// Creates a wirer reporting into `tally`.
    pub fn new(runtime: ProcId, rules: Vec<FanRule>, tally: Rc<Tally>) -> FanWirer {
        let n = rules.len();
        FanWirer {
            runtime,
            client: None,
            rules,
            srcs: vec![Vec::new(); n],
            dsts: vec![Vec::new(); n],
            tally,
        }
    }
}

impl Process for FanWirer {
    fn name(&self) -> &str {
        "bench-wirer"
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
                let id = profile.id();
                let mut to_wire = Vec::new();
                for (i, rule) in self.rules.iter().enumerate() {
                    if profile.name().contains(rule.src_tag) {
                        self.srcs[i].push(id);
                        for &dst in &self.dsts[i] {
                            to_wire.push((i, id, dst));
                        }
                    }
                    if profile.name().contains(rule.dst_tag) {
                        self.dsts[i].push(id);
                        for &src in &self.srcs[i] {
                            to_wire.push((i, src, id));
                        }
                    }
                }
                let client = self.client.as_mut().expect("client set in on_start");
                for (i, src, dst) in to_wire {
                    let rule = &self.rules[i];
                    client.connect_ports(
                        ctx,
                        PortRef::new(src, rule.src_port),
                        PortRef::new(dst, rule.dst_port),
                        rule.qos.clone(),
                    );
                }
            }
            RuntimeEvent::ConnectFailed { .. } => bump(&self.tally.connect_failed, 1),
            _ => {}
        }
    }
}

/// A MediaBroker producer: registers a channel, then sends one
/// fixed-size Data frame per `interval`.
pub struct PacedProducer {
    broker: Addr,
    channel: String,
    frame: simnet::Payload,
    interval: SimDuration,
    stream: Option<StreamId>,
    acked: bool,
    acc: platform_mediabroker::MbAccumulator,
}

impl PacedProducer {
    /// Creates a producer of `frame_size`-byte frames on `channel`.
    pub fn new(
        broker: Addr,
        channel: &str,
        frame_size: usize,
        interval: SimDuration,
    ) -> PacedProducer {
        PacedProducer {
            broker,
            channel: channel.to_owned(),
            frame: platform_mediabroker::MbFrame::Data {
                payload: vec![0xAB; frame_size].into(),
            }
            .encode_framed(),
            interval,
            stream: None,
            acked: false,
            acc: platform_mediabroker::MbAccumulator::new(),
        }
    }
}

impl Process for PacedProducer {
    fn name(&self) -> &str {
        "bench-mb-producer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = ctx.connect(self.broker).ok();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let (Some(stream), true) = (self.stream, self.acked) {
            let _ = ctx.stream_send(stream, self.frame.clone());
            ctx.set_timer(self.interval, 0);
        }
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if Some(stream) != self.stream {
            return;
        }
        match event {
            StreamEvent::Connected => {
                let _ = ctx.stream_send(
                    stream,
                    platform_mediabroker::MbFrame::Produce {
                        channel: self.channel.clone(),
                        media_type: "application/octet-stream".to_owned(),
                    }
                    .encode_framed(),
                );
            }
            StreamEvent::Data(data) => {
                self.acc.push(&data);
                while let Ok(Some(f)) = self.acc.next() {
                    if f == platform_mediabroker::MbFrame::Ack && !self.acked {
                        self.acked = true;
                        ctx.set_timer(self.interval, 0);
                    }
                }
            }
            _ => {}
        }
    }
}

/// A native sink that counts what arrives, keeping nothing.
pub struct CountingSink {
    tally: Rc<Tally>,
}

impl CountingSink {
    /// Creates a sink reporting into `tally`.
    pub fn new(tally: Rc<Tally>) -> CountingSink {
        CountingSink { tally }
    }
}

impl NativeBehavior for CountingSink {
    fn on_input(&mut self, _env: &mut NativeEnv<'_, '_>, _port: &str, _msg: UMessage) {
        bump(&self.tally.delivered, 1);
    }
}

/// A native service that does nothing beyond being registered.
pub struct Idle;

impl NativeBehavior for Idle {}
