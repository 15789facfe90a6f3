//! Shared world-building blocks for the experiment harness.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{Addr, Ctx, NodeId, ProcId, Process, SegmentConfig, StreamEvent, StreamId, World};
use umiddle_core::{RuntimeConfig, RuntimeId, RuntimeStats, UmiddleRuntime};

/// Adds a node attached to the given segments, with its own runtime.
pub fn runtime_node(
    world: &mut World,
    name: &str,
    id: u32,
    segments: &[simnet::SegmentId],
) -> (NodeId, ProcId) {
    let (node, rt, _stats) =
        runtime_node_cfg(world, name, RuntimeConfig::new(RuntimeId(id)), segments);
    (node, rt)
}

/// Like [`runtime_node`], but with an explicit runtime configuration
/// and the runtime's stats handle, readable while the world runs (E12
/// reads convergence from it).
pub fn runtime_node_cfg(
    world: &mut World,
    name: &str,
    cfg: RuntimeConfig,
    segments: &[simnet::SegmentId],
) -> (NodeId, ProcId, Rc<RefCell<RuntimeStats>>) {
    let node = world.add_node(name);
    for s in segments {
        world.attach(node, *s).expect("attach");
    }
    let runtime = UmiddleRuntime::new(cfg);
    let stats = runtime.stats_handle();
    let rt = world.add_process(node, Box::new(runtime));
    (node, rt, stats)
}

/// A MediaBroker producer for benchmarks: registers a channel and emits
/// fixed-size Data frames, either saturating (fills the send buffer and
/// refills on `Writable`) or paced by an interval.
///
/// The paced mode stands in for TCP congestion control, which the
/// simulated transport (fixed window, go-back-N) lacks: on the paper's
/// shared hub, competing TCP flows adapted to each other, while an
/// unpaced fixed-window flow would monopolize the medium.
pub struct MbSaturatingProducer {
    /// Broker address.
    pub broker: Addr,
    /// Channel name.
    pub channel: String,
    /// Payload bytes per frame.
    pub frame_size: usize,
    /// `None` = saturate; `Some(i)` = one frame every `i`.
    pub pace: Option<simnet::SimDuration>,
    stream: Option<StreamId>,
    acked: bool,
    acc: platform_mediabroker::MbAccumulator,
}

impl MbSaturatingProducer {
    /// Creates a saturating producer.
    pub fn new(broker: Addr, channel: &str, frame_size: usize) -> MbSaturatingProducer {
        MbSaturatingProducer {
            broker,
            channel: channel.to_owned(),
            frame_size,
            pace: None,
            stream: None,
            acked: false,
            acc: platform_mediabroker::MbAccumulator::new(),
        }
    }

    /// Creates a paced producer.
    pub fn paced(
        broker: Addr,
        channel: &str,
        frame_size: usize,
        interval: simnet::SimDuration,
    ) -> MbSaturatingProducer {
        let mut p = MbSaturatingProducer::new(broker, channel, frame_size);
        p.pace = Some(interval);
        p
    }

    fn frame(&self) -> simnet::Payload {
        platform_mediabroker::MbFrame::Data {
            payload: vec![0xAB; self.frame_size].into(),
        }
        .encode_framed()
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let Some(stream) = self.stream else { return };
        if !self.acked {
            return;
        }
        let frame = self.frame();
        // Fill the send buffer completely; the resulting buffer-full
        // rejection arms the Writable notification that resumes us.
        loop {
            if ctx.stream_send(stream, frame.clone()).is_err() {
                break;
            }
        }
    }
}

impl Process for MbSaturatingProducer {
    fn name(&self) -> &str {
        "mb-bench-producer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = ctx.connect(self.broker).ok();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let (Some(stream), Some(interval), true) = (self.stream, self.pace, self.acked) {
            let frame = self.frame();
            let _ = ctx.stream_send(stream, frame);
            ctx.set_timer(interval, 0);
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
                        match self.pace {
                            Some(interval) => {
                                ctx.set_timer(interval, 0);
                            }
                            None => self.pump(ctx),
                        }
                    }
                }
            }
            StreamEvent::Writable if self.pace.is_none() => {
                self.pump(ctx);
            }
            _ => {}
        }
    }
}

/// A byte-counting native sink behaviour with timestamped totals,
/// readable from outside the world.
#[derive(Debug, Clone, Default)]
pub struct ByteMeter {
    /// `(virtual time nanos, cumulative bytes)` samples, one per message.
    pub samples: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl ByteMeter {
    /// Creates a meter.
    pub fn new() -> ByteMeter {
        ByteMeter::default()
    }

    /// Goodput in Mbps between two virtual times.
    pub fn goodput_mbps(&self, from_nanos: u64, to_nanos: u64) -> f64 {
        let samples = self.samples.borrow();
        let bytes: u64 = {
            let at = |t: u64| -> u64 {
                samples
                    .iter()
                    .take_while(|(ts, _)| *ts <= t)
                    .last()
                    .map(|(_, b)| *b)
                    .unwrap_or(0)
            };
            at(to_nanos).saturating_sub(at(from_nanos))
        };
        let secs = (to_nanos - from_nanos) as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            bytes as f64 * 8.0 / secs / 1e6
        }
    }

    /// Total messages observed.
    pub fn count(&self) -> usize {
        self.samples.borrow().len()
    }
}

impl umiddle_bridges::NativeBehavior for ByteMeter {
    fn on_input(
        &mut self,
        env: &mut umiddle_bridges::NativeEnv<'_, '_>,
        _port: &str,
        msg: umiddle_core::UMessage,
    ) {
        let mut samples = self.samples.borrow_mut();
        let total = samples.last().map(|(_, b)| *b).unwrap_or(0) + msg.body().len() as u64;
        samples.push((env.now().as_nanos(), total));
    }
}

/// Builds a standard 10 Mbps hub world.
pub fn hub_world(seed: u64) -> (World, simnet::SegmentId) {
    let mut world = World::new(seed);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    (world, hub)
}
