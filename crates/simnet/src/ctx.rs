//! The per-event context handed to [`Process`](crate::Process) handlers.

use std::any::Any;

use crate::error::SimResult;
use crate::process::{Addr, LocalMessage, NodeId, ProcId, Process, StreamId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{MetricRef, SpanDetail};
use crate::world::{Delivery, World};

/// Mutable access to the world, scoped to the process currently handling
/// an event.
///
/// All side effects a process can have — sending traffic, setting timers,
/// modeling CPU cost, spawning siblings — go through this type.
pub struct Ctx<'w> {
    world: &'w mut World,
    me: ProcId,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<'w> Ctx<'w> {
    pub(crate) fn new(world: &'w mut World, me: ProcId) -> Ctx<'w> {
        Ctx { world, me }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The id of the process handling this event.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Removes a process from the world — in-world failure injection,
    /// the event-driven twin of [`crate::World::remove_process`]. Lets a
    /// fault-injector process kill a victim mid-run from inside the
    /// event loop, at a virtual instant of its choosing.
    /// Removing `me` is allowed; the dead slot is not resurrected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`](crate::SimError::UnknownProcess)
    /// if the process does not exist or was already removed.
    pub fn remove_process(&mut self, proc: ProcId) -> SimResult<()> {
        self.world.remove_process(proc)
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.world.procs[self.me.index()].node
    }

    /// Seeded random number generator shared by the whole world.
    pub fn rng(&mut self) -> &mut crate::rng::SimRng {
        &mut self.world.rng
    }

    /// Adds `n` to a world counter, by name or by a [`MetricId`]
    /// resolved beforehand.
    ///
    /// [`MetricId`]: crate::MetricId
    pub fn bump<'a>(&mut self, counter: impl Into<MetricRef<'a>>, n: u64) {
        self.world.trace.bump(counter, n);
    }

    /// Sets a gauge to an absolute value.
    pub fn gauge_set<'a>(&mut self, gauge: impl Into<MetricRef<'a>>, v: i64) {
        self.world.trace.metrics_mut().gauge_set(gauge, v);
    }

    /// Adds a (possibly negative) delta to a gauge.
    pub fn gauge_add<'a>(&mut self, gauge: impl Into<MetricRef<'a>>, delta: i64) {
        self.world.trace.metrics_mut().gauge_add(gauge, delta);
    }

    /// Records a virtual-time duration into a latency histogram.
    pub fn observe<'a>(&mut self, histogram: impl Into<MetricRef<'a>>, d: SimDuration) {
        self.world.trace.metrics_mut().observe(histogram, d);
    }

    /// Records a virtual-time duration into a latency histogram tagged
    /// with the trace correlation id of the journey it measures, so the
    /// histogram keeps exemplars linking its slow buckets back to
    /// traces (see [`crate::Histogram::record_corr`]).
    pub fn observe_corr<'a>(
        &mut self,
        histogram: impl Into<MetricRef<'a>>,
        d: SimDuration,
        corr: u64,
    ) {
        self.world
            .trace
            .metrics_mut()
            .observe_corr(histogram, d, corr);
    }

    /// Read access to the world's metrics registry (counters, gauges,
    /// histograms). Useful for answering metric queries from inside a
    /// process handler.
    pub fn metrics(&self) -> &crate::trace::Metrics {
        self.world.trace.metrics()
    }

    /// An owned window over the live telemetry series, optionally scoped
    /// to one metric prefix (e.g. `rt0`). `None` until the world enables
    /// telemetry ([`crate::World::enable_telemetry`]). This is how a
    /// runtime answers live `TelemetryWindow` pulls from inside a
    /// handler.
    pub fn telemetry_window(&self, scope: Option<&str>) -> Option<crate::TelemetryWindow> {
        self.world.telemetry_window(scope)
    }

    /// Records an instant (zero-duration) span on a correlated path,
    /// attributed to this process at the current virtual time. `corr` is
    /// the correlation id minted when the connection was established.
    /// The process name was resolved when the process joined the world
    /// and building a typed detail allocates nothing, so the record is
    /// the span's only cost.
    pub fn span(
        &mut self,
        corr: u64,
        stage: &'static str,
        detail: impl Into<SpanDetail>,
    ) -> crate::SpanId {
        let source = self.world.procs[self.me.index()].source;
        let now = self.world.now();
        self.world
            .trace
            .span_from(corr, now, source, stage, detail.into())
    }

    /// Opens a structured span on a correlated path, attributed to this
    /// process at the current virtual time. Close it with
    /// [`span_end`](Ctx::span_end) — possibly from a different process
    /// (the id can travel with the message it measures).
    pub fn span_begin(
        &mut self,
        corr: u64,
        stage: &'static str,
        detail: impl Into<SpanDetail>,
    ) -> crate::SpanId {
        let source = self.world.procs[self.me.index()].source;
        let now = self.world.now();
        self.world
            .trace
            .span_begin_from(corr, now, source, stage, detail.into())
    }

    /// Closes a span at this process's *emit time* — the current virtual
    /// time plus any CPU work accumulated via [`busy`](Ctx::busy) in
    /// this handler — so modeled compute is inside the span, matching
    /// when the process's outputs actually leave it. Returns the span's
    /// duration (`None` for an unknown, already-closed, or sentinel id).
    pub fn span_end(&mut self, id: crate::SpanId) -> Option<crate::SimDuration> {
        let t = self.world.emit_time(self.me);
        self.world.trace.span_end(id, t)
    }

    /// Models CPU work: subsequent event deliveries to this process are
    /// deferred until the accumulated busy time elapses.
    pub fn busy(&mut self, duration: SimDuration) {
        let now = self.world.now();
        let slot = &mut self.world.procs[self.me.index()];
        let base = slot.busy_until.max(now);
        slot.busy_until = base + duration;
    }

    /// Sets a one-shot timer; `token` is returned to
    /// [`Process::on_timer`](crate::Process::on_timer) when it fires.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.world.set_timer(self.me, after, token);
    }

    /// Binds a datagram port on this node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PortInUse`](crate::SimError::PortInUse) if the
    /// port is held by another live process.
    pub fn bind(&mut self, port: u16) -> SimResult<()> {
        self.world.bind(self.me, port)
    }

    /// Allocates a free ephemeral port on this node (not yet bound).
    pub fn ephemeral_port(&mut self) -> u16 {
        let node = self.node();
        self.world.alloc_ephemeral(node)
    }

    /// Sends a datagram from `src_port` on this node.
    ///
    /// Accepts anything convertible to a [`Payload`](crate::Payload)
    /// (`Vec<u8>`, `&[u8]`, an existing `Payload`, …); passing a `Payload`
    /// forwards it without copying.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoRoute`](crate::SimError::NoRoute) if this node
    /// shares no segment with the destination.
    pub fn send_to(
        &mut self,
        src_port: u16,
        dst: Addr,
        data: impl Into<crate::Payload>,
    ) -> SimResult<()> {
        self.world
            .send_datagram(self.me, src_port, dst, data.into())
    }

    /// Joins multicast group `group` on every segment this node is
    /// currently attached to.
    pub fn join_group(&mut self, group: u16) -> SimResult<()> {
        self.world.join_group(self.me, group)
    }

    /// Leaves multicast group `group` everywhere.
    pub fn leave_group(&mut self, group: u16) -> SimResult<()> {
        self.world.leave_group(self.me, group)
    }

    /// Multicasts `data` to group members on all attached segments. The
    /// sending node does not receive its own multicast. All recipients
    /// share one backing buffer: fan-out to N members copies no bytes.
    pub fn multicast(
        &mut self,
        src_port: u16,
        group: u16,
        data: impl Into<crate::Payload>,
    ) -> SimResult<()> {
        self.world
            .send_multicast(self.me, src_port, group, data.into())
    }

    /// Starts accepting stream connections on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PortInUse`](crate::SimError::PortInUse) if the
    /// port is held by another live process.
    pub fn listen(&mut self, port: u16) -> SimResult<()> {
        self.world.listen(self.me, port)
    }

    /// Opens a stream to `dst`. Completion is reported asynchronously as
    /// [`StreamEvent::Connected`](crate::StreamEvent::Connected) or
    /// [`StreamEvent::ConnectFailed`](crate::StreamEvent::ConnectFailed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoRoute`](crate::SimError::NoRoute) if this node
    /// shares no segment with the destination.
    pub fn connect(&mut self, dst: Addr) -> SimResult<StreamId> {
        self.world.stream_connect(self.me, dst)
    }

    /// Queues bytes on a stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StreamBufferFull`](crate::SimError::StreamBufferFull)
    /// when the send buffer is at capacity — wait for
    /// [`StreamEvent::Writable`](crate::StreamEvent::Writable) — and
    /// [`SimError::StreamClosed`](crate::SimError::StreamClosed) on a
    /// closed stream.
    pub fn stream_send(
        &mut self,
        stream: StreamId,
        data: impl Into<crate::Payload>,
    ) -> SimResult<()> {
        self.world.stream_send(self.me, stream, data.into())
    }

    /// Bytes that can currently be queued on the stream without hitting
    /// [`SimError::StreamBufferFull`](crate::SimError::StreamBufferFull).
    pub fn stream_sendable(&self, stream: StreamId) -> usize {
        self.world.stream_sendable(self.me, stream)
    }

    /// Closes our direction of the stream after queued data drains. The
    /// peer observes [`StreamEvent::Closed`](crate::StreamEvent::Closed).
    pub fn stream_close(&mut self, stream: StreamId) {
        self.world.stream_close_deferred(self.me, stream);
    }

    /// Sends a local (same-node, zero-cost) message to another process.
    /// Delivery is asynchronous, at the current virtual time.
    pub fn send_local(&mut self, to: ProcId, msg: impl Any) {
        let now = self.world.now();
        self.world.schedule_delivery(
            now,
            to,
            Delivery::Local {
                from: self.me,
                msg: Box::new(msg) as LocalMessage,
            },
        );
    }

    /// Sends an already-boxed local message (avoids double boxing when
    /// forwarding).
    pub fn send_local_boxed(&mut self, to: ProcId, msg: LocalMessage) {
        let now = self.world.now();
        self.world
            .schedule_delivery(now, to, Delivery::Local { from: self.me, msg });
    }

    /// Spawns a new process on this node. Its `on_start` runs at the
    /// current virtual time.
    pub fn spawn_local(&mut self, process: Box<dyn Process>) -> ProcId {
        let node = self.node();
        self.world.add_process(node, process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::SegmentConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct EphemeralProbe {
        ports: Rc<RefCell<Vec<u16>>>,
    }
    impl Process for EphemeralProbe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let p1 = ctx.ephemeral_port();
            ctx.bind(p1).unwrap();
            let p2 = ctx.ephemeral_port();
            self.ports.borrow_mut().extend([p1, p2]);
        }
    }

    #[test]
    fn ephemeral_ports_skip_bound_ones() {
        let mut w = World::new(0);
        let seg = w.add_segment(SegmentConfig::loopback());
        let n = w.add_node("n");
        w.attach(n, seg).unwrap();
        let ports = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            n,
            Box::new(EphemeralProbe {
                ports: Rc::clone(&ports),
            }),
        );
        w.run_until_idle();
        let ports = ports.borrow();
        assert_eq!(ports.len(), 2);
        assert_ne!(ports[0], ports[1]);
    }

    struct LocalSender {
        to: Option<ProcId>,
    }
    impl Process for LocalSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(to) = self.to {
                ctx.send_local(to, 41_u32);
            }
        }
    }

    struct LocalReceiver {
        got: Rc<RefCell<Option<u32>>>,
    }
    impl Process for LocalReceiver {
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            *self.got.borrow_mut() = msg.downcast::<u32>().ok().map(|v| *v);
        }
    }

    #[test]
    fn local_messages_downcast() {
        let mut w = World::new(0);
        let n = w.add_node("n");
        let got = Rc::new(RefCell::new(None));
        let rx = w.add_process(
            n,
            Box::new(LocalReceiver {
                got: Rc::clone(&got),
            }),
        );
        w.add_process(n, Box::new(LocalSender { to: Some(rx) }));
        w.run_until_idle();
        assert_eq!(*got.borrow(), Some(41));
    }
}
