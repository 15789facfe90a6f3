//! The simulation world: nodes, segments, processes, and the deterministic
//! event loop.

use std::collections::VecDeque;
use std::hash::Hasher;

use crate::attrib::AttributionReport;
use crate::ctx::Ctx;
use crate::error::{SimError, SimResult};
use crate::hash::{IntHasher, IntMap};
use crate::health::{AlertState, HealthReport, SegmentSample, SloEngine, TelemetryConfig};
use crate::incident::{IncidentBundle, TopologyDigest, TriggerKind, MAX_BUNDLES, TRACE_WINDOW};
use crate::journal::SpanSource;
use crate::medium::{schedule_tx, SegmentConfig};
use crate::metric_id;
use crate::payload::Payload;
use crate::process::{
    Addr, Datagram, LocalMessage, NodeId, ProcId, Process, SegmentId, StreamEvent, StreamId,
};
use crate::stream::{StreamFrame, StreamState};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::{Telemetry, TelemetryWindow};
use crate::trace::{MetricId, SegmentStats, Trace};
use crate::wheel::TimerWheel;

/// First ephemeral port handed out by [`Ctx::ephemeral_port`].
const EPHEMERAL_BASE: u16 = 49_152;

pub(crate) struct NodeState {
    pub(crate) name: String,
    pub(crate) segments: Vec<SegmentId>,
    /// Bound datagram/listener ports on this node.
    pub(crate) ports: IntMap<u16, PortBinding>,
    pub(crate) next_ephemeral: u16,
    pub(crate) alive: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct PortBinding {
    pub(crate) proc: ProcId,
    pub(crate) listener: bool,
}

pub(crate) struct ProcSlot {
    pub(crate) node: NodeId,
    /// The process name, resolved once in the span journal's source
    /// table.
    pub(crate) source: SpanSource,
    pub(crate) busy_until: SimTime,
    pub(crate) alive: bool,
    pub(crate) process: Option<Box<dyn Process>>,
}

pub(crate) struct SegmentState {
    pub(crate) config: SegmentConfig,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) busy_until: SimTime,
    /// Multicast group membership: group port -> member processes.
    pub(crate) groups: IntMap<u16, Vec<ProcId>>,
    pub(crate) stats: SegmentStats,
    /// The `segment.segN.busy_ns` gauge the sampler trends.
    busy_ns: MetricId,
}

/// A frame in flight on a segment.
#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) src_node: NodeId,
    pub(crate) dst: FrameDst,
    pub(crate) payload: FramePayload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameDst {
    Unicast(NodeId),
    Group(u16),
}

#[derive(Debug)]
pub(crate) enum FramePayload {
    Datagram {
        src: Addr,
        dst: Addr,
        data: Payload,
        multicast: bool,
    },
    Stream(StreamFrame),
}

/// An event deliverable to a process.
#[derive(Debug)]
pub(crate) enum Delivery {
    Start,
    Timer {
        token: u64,
    },
    Local {
        from: ProcId,
        msg: LocalMessage,
    },
    Datagram(Datagram),
    Stream {
        stream: StreamId,
        event: crate::process::StreamEvent,
    },
}

/// Deliveries to one process, in dispatch order, that ride the scheduler
/// as one entry while the process is busy (see [`World::defer`]).
pub(crate) type DeliveryRun = VecDeque<Delivery>;

/// Appends `other`'s items to `run`, moving the shorter side so repeated
/// merges stay O(k log k) in the worst case, and returns the emptied
/// buffer for reuse.
fn append_run(run: &mut DeliveryRun, mut other: DeliveryRun) -> DeliveryRun {
    if other.len() > run.len() {
        while let Some(d) = run.pop_back() {
            other.push_front(d);
        }
        std::mem::swap(run, &mut other);
    } else {
        run.append(&mut other);
    }
    other
}

/// Empty run and member buffers kept for reuse; more are dropped.
const RUN_BUFFERS_KEPT: usize = 32;

impl std::fmt::Debug for ProcSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcSlot")
            .field("node", &self.node)
            .field("source", &self.source)
            .field("busy_until", &self.busy_until)
            .field("alive", &self.alive)
            .finish_non_exhaustive()
    }
}

/// A timer's place in the scheduler's `(time, seq)` order, drawn by
/// [`World::reserve_timer`] at the moment a `schedule` call would have
/// drawn it, whether or not the entry is ever pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
}

pub(crate) enum EventKind {
    Deliver {
        proc: ProcId,
        delivery: Delivery,
    },
    /// Deliveries deferred together behind a busy process (see
    /// [`World::defer`]).
    DeliverRun {
        proc: ProcId,
        run: DeliveryRun,
    },
    /// One multicast frame's deliveries to two or more group members,
    /// in membership order (see [`World::deliver_fanout`]).
    DeliverFanout {
        src: Addr,
        group: u16,
        data: Payload,
        members: Vec<ProcId>,
    },
    FrameArrival {
        segment: SegmentId,
        frame: Frame,
    },
    /// A stream side's queued retransmission-timer entry; `key` tells
    /// it from the entries that superseded it (see `crate::stream`).
    StreamRto {
        stream: StreamId,
        from_initiator: bool,
        key: TimerKey,
    },
    /// A deferred process output: sent from a handler while the process
    /// had accumulated modeled CPU time, executed once that time elapses.
    Emit {
        proc: ProcId,
        action: EmitAction,
    },
    /// Periodic telemetry sample (see [`World::enable_telemetry`]); the
    /// sampler re-arms itself on a fixed virtual-time grid while other
    /// work remains, and goes dormant when the queue drains so it never
    /// keeps [`World::run_until_idle`] alive on its own.
    TelemetrySample,
}

/// A process output: run at once, or carried by an [`EventKind::Emit`]
/// while the process is busy (see [`World::emit_or_defer`]).
pub(crate) enum EmitAction {
    Datagram {
        src_port: u16,
        dst: Addr,
        data: Payload,
    },
    Multicast {
        src_port: u16,
        group: u16,
        data: Payload,
    },
    StreamData {
        stream: StreamId,
        data: Payload,
    },
    StreamClose {
        stream: StreamId,
    },
    /// A deferred cumulative ACK: sent once the receiving process's
    /// modeled CPU time elapses, which applies backpressure to senders
    /// flooding a busy receiver.
    StreamAck {
        stream: StreamId,
        rx_initiator: bool,
    },
}

/// The deterministic discrete-event simulation world.
///
/// A `World` owns all nodes, network segments, processes and streams, and a
/// seeded random number generator, so a run is a pure function of the seed
/// and the process implementations.
///
/// # Examples
///
/// ```
/// use simnet::{Process, SegmentConfig, SimTime, World};
///
/// struct Quiet;
/// impl Process for Quiet {}
///
/// let mut world = World::new(7);
/// let seg = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
/// let node = world.add_node("host");
/// world.attach(node, seg)?;
/// world.add_process(node, Box::new(Quiet));
/// world.run_until(SimTime::from_secs(1));
/// assert_eq!(world.now(), SimTime::from_secs(1));
/// # Ok::<(), simnet::SimError>(())
/// ```
pub struct World {
    now: SimTime,
    queue: TimerWheel<EventKind>,
    /// The same-tick event batch `step_batch` is draining (empty
    /// outside it); [`World::defer`] takes deliveries from its front.
    batch: VecDeque<EventKind>,
    /// Events scheduled at the current tick while `step_batch` drains
    /// it; they extend the live batch instead of re-entering the wheel.
    tick_overflow: VecDeque<EventKind>,
    /// Emptied [`DeliveryRun`] buffers, reused so deferral does not
    /// allocate in steady state.
    run_buffers: Vec<DeliveryRun>,
    /// `true` while `step_batch` is dispatching a batch.
    in_tick_drain: bool,
    /// Total events dispatched since the world was created.
    events_processed: u64,
    /// The running hash behind [`World::dispatch_fingerprint`].
    fingerprint: IntHasher,
    /// Handler invocations folded into `fingerprint`.
    handler_calls: u64,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) procs: Vec<ProcSlot>,
    pub(crate) segments: Vec<SegmentState>,
    /// Every stream ever opened, indexed by [`StreamId`]; a closed
    /// stream leaves a one-word `None` (ids are never reused).
    pub(crate) streams: Vec<Option<Box<StreamState>>>,
    pub(crate) rng: crate::rng::SimRng,
    pub(crate) trace: Trace,
    started: bool,
    /// Emptied member lists of [`EventKind::DeliverFanout`], reused so
    /// a multicast frame does not allocate in steady state.
    member_buffers: Vec<Vec<ProcId>>,
    /// Lazily created loopback segment for same-node traffic.
    loopback: Option<SegmentId>,
    /// Live telemetry plane, when enabled: windowed series + SLO engine.
    telemetry: Option<Box<TelemetryPlane>>,
    /// `true` while a `TelemetrySample` event is in the queue.
    sampler_armed: bool,
    /// The incident trigger plane, when the flight recorder is on.
    incident: Option<Box<IncidentPlane>>,
    /// The continuous latency-attribution profiler, when enabled.
    attrib: Option<Box<crate::attrib::AttributionPlane>>,
}

/// The world's in-run telemetry state (boxed to keep `World` small for
/// the common telemetry-off case).
struct TelemetryPlane {
    store: Telemetry,
    engine: SloEngine,
    liveness_timeout: SimDuration,
}

/// Trigger-plane state for the always-on flight recorder (see
/// [`crate::incident`]): captured bundles plus the watermarks that
/// detect *new* trigger conditions at each telemetry sample.
struct IncidentPlane {
    bundles: Vec<IncidentBundle>,
    /// SLO transitions already examined (index into the engine's log).
    seen_transitions: usize,
    /// The doctor's last ranked offender list, as `kind:name` keys.
    last_rank: Vec<String>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("procs", &self.procs.len())
            .field("segments", &self.segments.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl World {
    /// Creates an empty world with a deterministic RNG seed.
    pub fn new(seed: u64) -> World {
        World {
            now: SimTime::ZERO,
            queue: TimerWheel::new(),
            batch: VecDeque::new(),
            tick_overflow: VecDeque::new(),
            run_buffers: Vec::new(),
            in_tick_drain: false,
            events_processed: 0,
            fingerprint: IntHasher::default(),
            handler_calls: 0,
            nodes: Vec::new(),
            procs: Vec::new(),
            segments: Vec::new(),
            streams: Vec::new(),
            rng: crate::rng::SimRng::seed_from_u64(seed),
            trace: Trace::default(),
            started: false,
            member_buffers: Vec::new(),
            loopback: None,
            telemetry: None,
            sampler_armed: false,
            incident: None,
            attrib: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the trace (spans and metrics).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Adds a network segment and returns its id.
    pub fn add_segment(&mut self, config: SegmentConfig) -> SegmentId {
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(SegmentState {
            config,
            nodes: Vec::new(),
            busy_until: SimTime::ZERO,
            groups: IntMap::default(),
            stats: SegmentStats::default(),
            busy_ns: MetricId::new(&format!("segment.seg{}.busy_ns", id.0)),
        });
        id
    }

    /// Adds a node (simulated host) and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeState {
            name: name.into(),
            segments: Vec::new(),
            ports: IntMap::default(),
            next_ephemeral: EPHEMERAL_BASE,
            alive: true,
        });
        id
    }

    /// Attaches a node to a segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SegmentFull`] if the segment's technology bounds
    /// membership (e.g. a Bluetooth piconet) and the bound is reached, and
    /// [`SimError::UnknownNode`]/[`SimError::UnknownSegment`] for invalid
    /// ids.
    pub fn attach(&mut self, node: NodeId, segment: SegmentId) -> SimResult<()> {
        if node.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(node));
        }
        let seg = self
            .segments
            .get_mut(segment.index())
            .ok_or(SimError::UnknownSegment(segment))?;
        if let Some(max) = seg.config.max_nodes {
            if seg.nodes.len() as u32 >= max {
                return Err(SimError::SegmentFull(segment));
            }
        }
        if !seg.nodes.contains(&node) {
            seg.nodes.push(node);
            self.nodes[node.index()].segments.push(segment);
        }
        Ok(())
    }

    /// Detaches a node from a segment (e.g. a Bluetooth device leaving
    /// range). In-flight frames already scheduled still arrive.
    pub fn detach(&mut self, node: NodeId, segment: SegmentId) -> SimResult<()> {
        let seg = self
            .segments
            .get_mut(segment.index())
            .ok_or(SimError::UnknownSegment(segment))?;
        seg.nodes.retain(|n| *n != node);
        if let Some(n) = self.nodes.get_mut(node.index()) {
            n.segments.retain(|s| *s != segment);
        }
        Ok(())
    }

    /// Adds a process to a node. Its [`Process::on_start`] runs at the
    /// current virtual time once the world is (or starts) running.
    pub fn add_process(&mut self, node: NodeId, process: Box<dyn Process>) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        let source = self.trace.span_source(process.name());
        self.procs.push(ProcSlot {
            node,
            source,
            busy_until: SimTime::ZERO,
            alive: true,
            process: Some(process),
        });
        self.schedule(
            self.now,
            EventKind::Deliver {
                proc: id,
                delivery: Delivery::Start,
            },
        );
        id
    }

    /// Removes a process: runs [`Process::on_stop`], releases its ports,
    /// resets its streams, and drops it. Used for failure injection.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if the process does not exist
    /// or was already removed.
    pub fn remove_process(&mut self, proc: ProcId) -> SimResult<()> {
        let slot = self
            .procs
            .get_mut(proc.index())
            .ok_or(SimError::UnknownProcess(proc))?;
        if !slot.alive {
            return Err(SimError::UnknownProcess(proc));
        }
        // Run the stop hook while the slot is still alive.
        self.invoke(proc, |p, ctx| p.on_stop(ctx));
        let slot = &mut self.procs[proc.index()];
        slot.alive = false;
        slot.process = None;
        let node = slot.node;
        self.nodes[node.index()]
            .ports
            .retain(|_, binding| binding.proc != proc);
        for seg in &mut self.segments {
            for members in seg.groups.values_mut() {
                members.retain(|p| *p != proc);
            }
        }
        self.reset_streams_of(proc);
        Ok(())
    }

    /// Returns the node a process runs on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] for invalid or removed ids.
    pub fn node_of(&self, proc: ProcId) -> SimResult<NodeId> {
        self.procs
            .get(proc.index())
            .filter(|s| s.alive)
            .map(|s| s.node)
            .ok_or(SimError::UnknownProcess(proc))
    }

    /// Binds `port` on the process's node for datagram reception.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PortInUse`] if another live process holds it.
    pub fn bind(&mut self, proc: ProcId, port: u16) -> SimResult<()> {
        self.bind_inner(proc, port, false)
    }

    /// Binds `port` as a stream listener for the process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PortInUse`] if another live process holds it.
    pub fn listen(&mut self, proc: ProcId, port: u16) -> SimResult<()> {
        self.bind_inner(proc, port, true)
    }

    pub(crate) fn bind_inner(&mut self, proc: ProcId, port: u16, listener: bool) -> SimResult<()> {
        let node = self.node_of(proc)?;
        let ports = &mut self.nodes[node.index()].ports;
        if let Some(existing) = ports.get(&port) {
            if existing.proc != proc {
                return Err(SimError::PortInUse { node, port });
            }
        }
        ports.insert(port, PortBinding { proc, listener });
        Ok(())
    }

    /// Joins the process to multicast group `group` on every segment its
    /// node is attached to at this moment.
    pub fn join_group(&mut self, proc: ProcId, group: u16) -> SimResult<()> {
        let node = self.node_of(proc)?;
        // Index-based walk: the membership update borrows `self.segments`
        // mutably, so we avoid cloning the node's segment list.
        for i in 0..self.nodes[node.index()].segments.len() {
            let seg = self.nodes[node.index()].segments[i];
            let members = self.segments[seg.index()].groups.entry(group).or_default();
            if !members.contains(&proc) {
                members.push(proc);
            }
        }
        Ok(())
    }

    /// Removes the process from multicast group `group` everywhere.
    pub fn leave_group(&mut self, proc: ProcId, group: u16) -> SimResult<()> {
        self.node_of(proc)?;
        for seg in &mut self.segments {
            if let Some(members) = seg.groups.get_mut(&group) {
                members.retain(|p| *p != proc);
            }
        }
        Ok(())
    }

    /// Statistics for a segment.
    pub fn segment_stats(&self, segment: SegmentId) -> SimResult<SegmentStats> {
        self.segments
            .get(segment.index())
            .map(|s| s.stats)
            .ok_or(SimError::UnknownSegment(segment))
    }

    /// Changes a segment's frame-loss probability (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn set_segment_loss(&mut self, segment: SegmentId, loss: f64) -> SimResult<()> {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        self.segments
            .get_mut(segment.index())
            .map(|s| s.config.loss = loss)
            .ok_or(SimError::UnknownSegment(segment))
    }

    // ------------------------------------------------------------------
    // Telemetry plane
    // ------------------------------------------------------------------

    /// Turns on the in-run telemetry plane: a timer-wheel-driven sampler
    /// that folds per-interval deltas of every metric into bounded ring
    /// windows ([`crate::timeseries`]) and re-evaluates the configured
    /// SLOs after every sample ([`crate::health`]). The enable pass
    /// takes a baseline sample (no deltas), so counters accumulated
    /// before this call never show up as one giant first interval.
    ///
    /// Calling it again replaces the plane (new config, empty windows).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        let mut store = Telemetry::new(config.sampler);
        self.fold_sched_metrics();
        store.sample(self.now, self.trace.metrics());
        self.telemetry = Some(Box::new(TelemetryPlane {
            store,
            engine: SloEngine::new(config.objectives),
            liveness_timeout: config.liveness_timeout,
        }));
        self.sampler_armed = false;
        self.arm_sampler();
    }

    /// Turns on the incident trigger plane over the trace's span ring
    /// journal (the flight recorder, always on): every telemetry sample
    /// checks for incident triggers — a new ok→firing SLO transition or
    /// a change in the doctor's ranked offender list — snapshotting a
    /// deterministic [`IncidentBundle`] for each (see
    /// [`crate::incident`]).
    ///
    /// The triggers need [`World::enable_telemetry`] as well; without
    /// it nothing trips, though [`World::capture_incident`] still cuts
    /// bundles on demand.
    pub fn enable_flight_recorder(&mut self) {
        self.incident = Some(Box::new(IncidentPlane {
            bundles: Vec::new(),
            seen_transitions: 0,
            last_rank: Vec::new(),
        }));
    }

    /// Turns on the continuous latency-attribution profiler
    /// ([`crate::attrib`]): every telemetry sample incrementally folds
    /// the span journal into per-component self/queue time totals, each
    /// with an exemplar corr linking back to a trace journey. The
    /// continuous cadence needs
    /// [`World::enable_telemetry`]; without it the fold only advances
    /// when [`World::attribution_report`] is called. Calling it again
    /// resets the profiler.
    pub fn enable_attribution(&mut self) {
        self.attrib = Some(Box::new(crate::attrib::AttributionPlane::new()));
    }

    /// Advances the attribution fold over everything begun or closed in
    /// the span journal since the last fold. No-op when attribution is
    /// off.
    fn fold_attribution(&mut self) {
        let Some(plane) = self.attrib.as_mut() else {
            return;
        };
        plane.fold(&mut self.trace);
    }

    /// Catches the attribution fold up to right now and snapshots it.
    /// `None` when [`World::enable_attribution`] is off.
    pub fn attribution_report(&mut self) -> Option<crate::AttributionReport> {
        self.attrib.as_ref()?;
        self.fold_attribution();
        let now = self.now;
        self.attrib.as_ref().map(|p| p.report(now))
    }

    /// The attribution aggregates as of the last fold (the most recent
    /// telemetry sample), without advancing the fold — this is what the
    /// doctor reads, since it only holds `&self`. `None` when
    /// attribution is off.
    pub fn attribution(&self) -> Option<crate::AttributionReport> {
        self.attrib.as_ref().map(|p| p.report(self.now))
    }

    /// The incident bundles captured so far, in trigger order.
    pub fn incidents(&self) -> &[IncidentBundle] {
        self.incident.as_ref().map_or(&[], |p| &p.bundles)
    }

    /// Snapshots an incident bundle right now: the trace window around
    /// this instant, the telemetry window, the SLO history, the doctor
    /// report, and the topology digest. Called by the trigger plane;
    /// also public so tests and tools can cut a bundle on demand.
    ///
    /// Every trigger bumps the `incident.triggers` counter; triggers
    /// after the fourth bundle are counted but not stored. A no-op when
    /// the flight recorder is off.
    pub fn capture_incident(&mut self, kind: TriggerKind, detail: String) {
        let Some(plane) = self.incident.as_ref() else {
            return;
        };
        let full = plane.bundles.len() >= MAX_BUNDLES;
        self.trace.metrics_mut().counter_add("incident.triggers", 1);
        if full {
            return;
        }
        let since =
            SimTime::from_nanos(self.now.as_nanos().saturating_sub(TRACE_WINDOW.as_nanos()));
        let spans: Vec<crate::SpanRecord> = self
            .trace
            .spans()
            .filter(|s| s.effective_end() >= since)
            .collect();
        let telemetry = self.telemetry_window(None).map(|w| w.to_json());
        let doctor = self.doctor().map(|r| r.to_json());
        let transitions = self
            .slo_engine()
            .map(|e| e.transitions().to_vec())
            .unwrap_or_default();
        let topology = TopologyDigest::new(
            self.nodes.iter().map(|n| n.name.as_str()),
            self.procs.iter().map(|p| self.trace.source_name(p.source)),
            self.segments
                .iter()
                .enumerate()
                .map(|(i, s)| format!("seg{i}:{}", s.config.name))
                .collect(),
        );
        let ring_overwrites = self.trace.ring_overwrites();
        let inc = self.incident.as_mut().expect("checked above");
        inc.bundles.push(IncidentBundle {
            kind,
            detail,
            at: self.now,
            seq: inc.bundles.len() as u64,
            spans,
            ring_overwrites,
            telemetry,
            transitions,
            doctor,
            topology,
        });
    }

    /// Checks the trigger conditions after a telemetry sample: new
    /// firing transitions since the last check, and any change in the
    /// doctor's ranked offender list. A recovery to an *empty* offender
    /// list updates the watermark silently (so a re-emergence triggers
    /// again) without cutting a bundle.
    fn detect_incident_triggers(&mut self) {
        let (new_seen, slo_triggers) = {
            let (Some(inc), Some(plane)) = (self.incident.as_ref(), self.telemetry.as_ref()) else {
                return;
            };
            let transitions = plane.engine.transitions();
            let seen = inc.seen_transitions.min(transitions.len());
            let trig: Vec<String> = transitions[seen..]
                .iter()
                .filter(|t| t.to == AlertState::Firing)
                .map(|t| {
                    format!(
                        "{}: {} -> {} at {}",
                        t.objective,
                        t.from.as_str(),
                        t.to.as_str(),
                        t.at
                    )
                })
                .collect();
            (transitions.len(), trig)
        };
        // The rank is sorted before attribution annotates it.
        let rank: Vec<String> = self
            .health_report(None)
            .map(|r| {
                r.top_offenders
                    .iter()
                    .map(|o| format!("{}:{}", o.kind, o.name))
                    .collect()
            })
            .unwrap_or_default();
        let rank_change = {
            let inc = self.incident.as_mut().expect("checked above");
            inc.seen_transitions = new_seen;
            if rank != inc.last_rank {
                let change = (!rank.is_empty()).then(|| {
                    format!(
                        "top offenders now [{}] (was [{}])",
                        rank.join(", "),
                        inc.last_rank.join(", ")
                    )
                });
                inc.last_rank = rank;
                change
            } else {
                None
            }
        };
        for detail in slo_triggers {
            self.capture_incident(TriggerKind::SloFiring, detail);
        }
        if let Some(detail) = rank_change {
            self.capture_incident(TriggerKind::OffenderRankChange, detail);
        }
    }

    /// The live telemetry store, when [`World::enable_telemetry`] is on.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().map(|p| &p.store)
    }

    /// An owned window over the live series, optionally scoped to one
    /// prefix (e.g. `rt0`). `None` when telemetry is off.
    pub fn telemetry_window(&self, scope: Option<&str>) -> Option<TelemetryWindow> {
        self.telemetry.as_ref().map(|p| p.store.window(scope))
    }

    /// The live SLO engine, when telemetry is on.
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.telemetry.as_ref().map(|p| &p.engine)
    }

    /// Runs the federation doctor: aggregates bridge liveness, segment
    /// utilization trends, scheduler health and SLO burn into one
    /// deterministic [`HealthReport`]. `None` when telemetry is off.
    pub fn doctor(&self) -> Option<HealthReport> {
        self.health_report(self.attribution().as_ref())
    }

    /// The doctor's report, annotated from `attribution` when given.
    fn health_report(&self, attribution: Option<&AttributionReport>) -> Option<HealthReport> {
        let plane = self.telemetry.as_ref()?;
        let segments: Vec<SegmentSample> = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| SegmentSample {
                busy_ns: s.busy_ns,
                label: format!("seg{i}:{}", s.config.name),
                stats: s.stats,
            })
            .collect();
        Some(HealthReport::build(
            self.now,
            &plane.store,
            &plane.engine,
            self.trace.metrics(),
            &segments,
            self.queue.len() as u64,
            plane.liveness_timeout,
            attribution,
        ))
    }

    /// Folds `sched.events_pending` and the per-segment
    /// `segment.segN.busy_ns` gauges into the registry. Called at every
    /// sample and at run-loop sync points.
    fn fold_sched_metrics(&mut self) {
        let metrics = self.trace.metrics_mut();
        metrics.gauge_set(metric_id!("sched.events_pending"), self.queue.len() as i64);
        for seg in &self.segments {
            metrics.gauge_set(seg.busy_ns, seg.stats.busy.as_nanos() as i64);
        }
    }

    /// Moves the clock to a popped entry's due time.
    fn advance_to(&mut self, due: SimTime) {
        debug_assert!(due >= self.now, "time went backwards");
        self.now = self.now.max(due);
    }

    /// Pushes the next grid-aligned `TelemetrySample` event. Direct
    /// queue push: `schedule` would recurse through its own re-arm
    /// check, and a sample time is always strictly in the future.
    fn arm_sampler(&mut self) {
        let Some(plane) = self.telemetry.as_ref() else {
            return;
        };
        let interval = plane.store.interval().as_nanos();
        let next = SimTime::from_nanos((self.now.as_nanos() / interval + 1) * interval);
        self.sampler_armed = true;
        self.queue.push(next, EventKind::TelemetrySample);
    }

    /// Handles a `TelemetrySample` event: folds scheduler metrics, takes
    /// the sample, re-evaluates the SLOs, and re-arms only while other
    /// work remains queued. A drained queue parks the sampler;
    /// `schedule` wakes it again.
    fn telemetry_sample(&mut self) {
        self.sampler_armed = false;
        if self.telemetry.is_none() {
            return;
        }
        self.fold_sched_metrics();
        self.fold_attribution();
        let plane = self.telemetry.as_mut().expect("checked above");
        plane.store.sample(self.now, self.trace.metrics());
        plane
            .engine
            .evaluate(self.now, &plane.store, &mut self.trace);
        if self.incident.is_some() {
            self.detect_incident_triggers();
        }
        if !self.queue.is_empty() {
            self.arm_sampler();
        }
    }

    /// Events currently in this world's wheel (includes an armed
    /// telemetry sample, which parks itself once everything else
    /// drains).
    pub fn events_pending(&self) -> u64 {
        self.queue.len() as u64
    }

    /// The earliest instant this world has work scheduled for, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    pub(crate) fn schedule(&mut self, time: SimTime, kind: EventKind) {
        // A dormant sampler (it skips re-arming when the queue drains,
        // so it cannot keep `run_until_idle` alive) wakes up as soon as
        // any real work is scheduled.
        if !self.sampler_armed && self.telemetry.is_some() {
            self.arm_sampler();
        }
        // Same-tick fast path: an event scheduled for the tick currently
        // being drained (`send_local` cascades, mostly) joins the live
        // batch directly instead of round-tripping through the scheduler.
        // Order is preserved — schedule-call order is exactly the FIFO
        // `seq` order the wheel would have assigned, and every such event
        // would be popped as the immediately-next run anyway.
        if self.in_tick_drain && time <= self.now {
            self.tick_overflow.push_back(kind);
            return;
        }
        self.queue.push(time, kind);
    }

    /// Reserves the place in `(time, seq)` order that scheduling a timer
    /// at `at` now would take, without queueing anything: the sampler
    /// wakes and the sequence number is drawn exactly as in
    /// [`World::schedule`], so every other event keeps its sequence
    /// number whether or not the timer is queued later. `at` must be
    /// strictly in the future, so the timer can never join the live tick.
    pub(crate) fn reserve_timer(&mut self, at: SimTime) -> TimerKey {
        debug_assert!(at > self.now, "a timer is due after the current tick");
        if !self.sampler_armed && self.telemetry.is_some() {
            self.arm_sampler();
        }
        TimerKey {
            at,
            seq: self.queue.reserve_seq(),
        }
    }

    /// Queues `kind` at a reserved timer key. It pops exactly where a
    /// `schedule` call at reservation time would have put it, provided
    /// the key is still in the future (`key.at > now`).
    pub(crate) fn schedule_timer(&mut self, key: TimerKey, kind: EventKind) {
        debug_assert!(key.at > self.now, "a timer is queued before it is due");
        self.queue.push_reserved(key.at, key.seq, kind);
    }

    pub(crate) fn schedule_delivery(&mut self, time: SimTime, proc: ProcId, delivery: Delivery) {
        self.schedule(time, EventKind::Deliver { proc, delivery });
    }

    /// Marks the world as running. The first time, it also drains the
    /// thread-local payload accounting, so copy counters left behind by
    /// a previous world on the same thread cannot leak into this
    /// world's metrics snapshot.
    fn begin_run(&mut self) {
        if !self.started {
            self.started = true;
            crate::payload::take_stats();
        }
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.begin_run();
        let Some((time, kind)) = self.queue.pop() else {
            return false;
        };
        self.advance_to(time);
        self.events_processed += 1;
        self.dispatch(kind);
        true
    }

    /// The event the next [`World::step`] dispatches.
    #[cfg(test)]
    pub(crate) fn peek_event(&mut self) -> Option<&EventKind> {
        self.queue.peek().map(|(_, kind)| kind)
    }

    /// Every event in the scheduler, in no particular order.
    #[cfg(test)]
    pub(crate) fn queued_events(&self) -> impl Iterator<Item = &EventKind> {
        self.queue.iter()
    }

    /// Total events dispatched so far (every popped scheduler entry:
    /// deliveries, frame arrivals, timers, stream bookkeeping). A
    /// multicast frame's fan-out to its group members is one entry, and
    /// so one event, however many members it reaches. Useful as the
    /// denominator for throughput and allocation-rate metrics.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// A 64-bit hash of every handler invocation so far, in dispatch
    /// order: the virtual instant, the process, the callback kind and
    /// the delivery's identity (a datagram's source and length, a
    /// stream event's stream, kind and `Data` length, a timer's token,
    /// a local message's sender). Scheduler sequence numbers and event
    /// counts are not hashed, so a kernel change that carries the same
    /// deliveries in fewer or different scheduler entries keeps it,
    /// and one that reorders, drops or adds a handler call moves it.
    pub fn dispatch_fingerprint(&self) -> u64 {
        self.fingerprint.finish()
    }

    /// Handler invocations so far: the calls
    /// [`World::dispatch_fingerprint`] covers (`on_stop` is not one).
    pub fn handler_calls(&self) -> u64 {
        self.handler_calls
    }

    /// Runs every event scheduled for the next occupied tick in one
    /// queue advance. Same-tick events are drained into a reusable
    /// buffer and dispatched in sequence order; events the handlers
    /// schedule at the *same* instant carry larger sequence numbers and
    /// therefore correctly run on the next batch, so this is
    /// observationally identical to popping one event at a time.
    fn step_batch(&mut self) -> bool {
        self.begin_run();
        let Some(time) = self.queue.pop_run(&mut self.batch) else {
            return false;
        };
        self.advance_to(time);
        self.in_tick_drain = true;
        loop {
            self.events_processed += self.batch.len() as u64;
            while let Some(kind) = self.batch.pop_front() {
                self.dispatch(kind);
            }
            if self.tick_overflow.is_empty() {
                break;
            }
            // Handlers scheduled more work at this same tick; it extends
            // the live batch in schedule-call order, which is exactly the
            // FIFO sequence order the wheel would have assigned.
            std::mem::swap(&mut self.batch, &mut self.tick_overflow);
        }
        self.in_tick_drain = false;
        true
    }

    /// Runs until the event queue drains.
    pub fn run_until_idle(&mut self) {
        self.begin_run();
        while self.step_batch() {}
        self.fold_sched_metrics();
        self.trace.sync_payload_stats();
        self.trace.sync_ring_stats();
    }

    /// Runs until virtual time reaches `deadline` (events at exactly the
    /// deadline are processed). Time is advanced to the deadline even if
    /// the queue drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.begin_run();
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step_batch();
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
        self.fold_sched_metrics();
        self.trace.sync_payload_stats();
        self.trace.sync_ring_stats();
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { proc, delivery } => self.deliver(proc, delivery),
            EventKind::DeliverRun { proc, run } => self.deliver_run(proc, run),
            EventKind::DeliverFanout {
                src,
                group,
                data,
                members,
            } => self.deliver_fanout(src, group, data, members),
            EventKind::FrameArrival { segment, frame } => self.frame_arrival(segment, frame),
            EventKind::StreamRto {
                stream,
                from_initiator,
                key,
            } => self.stream_rto_fired(stream, from_initiator, key),
            EventKind::Emit { proc, action } => self.run_emit(proc, action),
            EventKind::TelemetrySample => self.telemetry_sample(),
        }
    }

    /// Executes a deferred output action, if the emitting process is
    /// still alive.
    fn run_emit(&mut self, proc: ProcId, action: EmitAction) {
        let alive = self
            .procs
            .get(proc.index())
            .map(|s| s.alive)
            .unwrap_or(false);
        if !alive {
            return;
        }
        match action {
            EmitAction::Datagram {
                src_port,
                dst,
                data,
            } => {
                let _ = self.send_datagram_now(proc, src_port, dst, data);
            }
            EmitAction::Multicast {
                src_port,
                group,
                data,
            } => {
                let _ = self.send_multicast_now(proc, src_port, group, data);
            }
            EmitAction::StreamData { stream, data } => {
                self.stream_enqueue(proc, stream, data);
            }
            EmitAction::StreamClose { stream } => {
                self.stream_close(proc, stream);
            }
            EmitAction::StreamAck {
                stream,
                rx_initiator,
            } => {
                self.send_ack_now(stream, rx_initiator);
            }
        }
    }

    /// Returns the instant at which output from `proc` may leave: now, or
    /// the end of its accumulated modeled CPU time.
    pub(crate) fn emit_time(&self, proc: ProcId) -> SimTime {
        self.procs
            .get(proc.index())
            .map(|s| s.busy_until.max(self.now))
            .unwrap_or(self.now)
    }

    /// The one output path: runs `action` now when the process is idle,
    /// or defers it until the process's modeled CPU time elapses, so
    /// declared processing costs precede the process's output on the
    /// wire. Datagrams, multicasts, stream writes, ACKs and closes all
    /// leave through here.
    pub(crate) fn emit_or_defer(&mut self, proc: ProcId, action: EmitAction) {
        let at = self.emit_time(proc);
        if at > self.now {
            self.schedule(at, EventKind::Emit { proc, action });
        } else {
            self.run_emit(proc, action);
        }
    }

    fn deliver(&mut self, proc: ProcId, delivery: Delivery) {
        let Some(slot) = self.procs.get(proc.index()) else {
            return;
        };
        if !slot.alive {
            return;
        }
        if slot.busy_until > self.now {
            let mut run = self.new_run();
            run.push_back(delivery);
            self.defer(proc, run);
        } else {
            self.deliver_one(proc, delivery);
        }
    }

    /// Delivers a run's items in order while the process is alive and
    /// idle. The first item that leaves it busy sends the rest back to
    /// the scheduler as one entry; a dead process drops the run.
    fn deliver_run(&mut self, proc: ProcId, mut run: DeliveryRun) {
        while !run.is_empty() {
            let Some(slot) = self.procs.get(proc.index()).filter(|s| s.alive) else {
                break;
            };
            if slot.busy_until > self.now {
                self.defer(proc, run);
                return;
            }
            let delivery = run.pop_front().expect("run is not empty");
            self.deliver_one(proc, delivery);
        }
        self.recycle_run_buffer(run);
    }

    /// Puts `run` (deliveries to the busy `proc`) back on the scheduler
    /// at the process's busy horizon as one entry, together with the
    /// contiguous following entries of the live tick batch that are
    /// deliveries to the same process.
    ///
    /// This is exact: deferral runs no handler and the entries it would
    /// have re-pushed one by one draw consecutive sequence numbers, so
    /// they stay contiguous in `(time, seq)` order at every later
    /// horizon. Carrying them as one entry therefore changes no dispatch
    /// order, and a k-deep backlog costs one scheduler entry per busy
    /// horizon instead of k. Entries that are not contiguous are left
    /// alone.
    fn defer(&mut self, proc: ProcId, mut run: DeliveryRun) {
        loop {
            match self.batch.front() {
                Some(
                    EventKind::Deliver { proc: p, .. } | EventKind::DeliverRun { proc: p, .. },
                ) if *p == proc => {}
                _ => break,
            }
            match self.batch.pop_front() {
                Some(EventKind::Deliver { delivery, .. }) => run.push_back(delivery),
                Some(EventKind::DeliverRun { run: other, .. }) => {
                    let emptied = append_run(&mut run, other);
                    self.recycle_run_buffer(emptied);
                }
                _ => unreachable!("peeked a delivery"),
            }
        }
        let at = self.procs[proc.index()].busy_until;
        self.schedule(at, EventKind::DeliverRun { proc, run });
    }

    /// Delivers one multicast frame to each member in order, exactly as
    /// one `Deliver` per member, scheduled back to back at this tick,
    /// would: those entries draw consecutive sequence numbers, so no
    /// other event runs between them. A dead member is skipped and an
    /// idle one runs its handler. A busy member that is not last is
    /// re-queued alone at its busy horizon: as a `Deliver`,
    /// [`World::defer`] would have found the next member's delivery at
    /// the batch front and merged nothing. The last member goes through
    /// [`World::deliver`], so when busy it still merges with contiguous
    /// deliveries to it that follow the frame in the batch.
    ///
    /// Every member takes its own clone of `data`, dead ones too, as
    /// each per-member `Deliver` did, so `payload.shared_clones` counts
    /// the same.
    fn deliver_fanout(&mut self, src: Addr, group: u16, data: Payload, members: Vec<ProcId>) {
        let last = members.len() - 1;
        for (i, &member) in members.iter().enumerate() {
            let data = data.clone();
            let Some(slot) = self.procs.get(member.index()).filter(|s| s.alive) else {
                continue;
            };
            let (node, busy_until) = (slot.node, slot.busy_until);
            let delivery = Delivery::Datagram(Datagram {
                src,
                dst: Addr::new(node, group),
                data,
                multicast: true,
            });
            if i == last {
                self.deliver(member, delivery);
            } else if busy_until > self.now {
                let mut run = self.new_run();
                run.push_back(delivery);
                self.schedule(busy_until, EventKind::DeliverRun { proc: member, run });
            } else {
                self.deliver_one(member, delivery);
            }
        }
        self.recycle_members(members);
    }

    /// Returns a fan-out's member list to the pool, emptied.
    fn recycle_members(&mut self, mut members: Vec<ProcId>) {
        if self.member_buffers.len() < RUN_BUFFERS_KEPT {
            members.clear();
            self.member_buffers.push(members);
        }
    }

    /// Runs one delivery on a live, idle process.
    fn deliver_one(&mut self, proc: ProcId, delivery: Delivery) {
        self.fold_fingerprint(proc, &delivery);
        self.invoke(proc, move |p, ctx| match delivery {
            Delivery::Start => p.on_start(ctx),
            Delivery::Timer { token } => p.on_timer(ctx, token),
            Delivery::Local { from, msg } => p.on_local(ctx, from, msg),
            Delivery::Datagram(d) => p.on_datagram(ctx, d),
            Delivery::Stream { stream, event } => p.on_stream(ctx, stream, event),
        });
    }

    /// Folds one handler invocation into the dispatch fingerprint: four
    /// multiply-xor rounds, no allocation.
    fn fold_fingerprint(&mut self, proc: ProcId, delivery: &Delivery) {
        let (kind, id, len) = match delivery {
            Delivery::Start => (0, 0, 0),
            Delivery::Timer { token } => (1, *token, 0),
            Delivery::Local { from, .. } => (2, u64::from(from.0), 0),
            Delivery::Datagram(d) => (
                3,
                u64::from(d.src.node.0) << 16 | u64::from(d.src.port),
                d.data.len(),
            ),
            Delivery::Stream { stream, event } => {
                let (event_kind, len) = match event {
                    StreamEvent::Connected => (0, 0),
                    StreamEvent::Accepted { .. } => (1, 0),
                    StreamEvent::Data(data) => (2, data.len()),
                    StreamEvent::Writable => (3, 0),
                    StreamEvent::Closed => (4, 0),
                    StreamEvent::ConnectFailed => (5, 0),
                };
                (4 + event_kind, u64::from(stream.0), len)
            }
        };
        let h = &mut self.fingerprint;
        h.write_u64(self.now.as_nanos());
        h.write_u64(u64::from(proc.0) << 8 | kind);
        h.write_u64(id);
        h.write_u64(len as u64);
        self.handler_calls += 1;
    }

    fn new_run(&mut self) -> DeliveryRun {
        self.run_buffers.pop().unwrap_or_default()
    }

    /// Returns a run's buffer to the pool, dropping any items a dead
    /// process left in it.
    fn recycle_run_buffer(&mut self, mut items: DeliveryRun) {
        if self.run_buffers.len() < RUN_BUFFERS_KEPT {
            items.clear();
            self.run_buffers.push(items);
        }
    }

    /// Temporarily extracts the process so the handler can borrow the
    /// world mutably through `Ctx`.
    fn invoke<F>(&mut self, proc: ProcId, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        let Some(mut process) = self
            .procs
            .get_mut(proc.index())
            .and_then(|s| s.process.take())
        else {
            return;
        };
        {
            let mut ctx = Ctx::new(self, proc);
            f(process.as_mut(), &mut ctx);
        }
        // The process may have removed itself; only restore live slots.
        if let Some(slot) = self.procs.get_mut(proc.index()) {
            if slot.alive {
                slot.process = Some(process);
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers (called via Ctx)
    // ------------------------------------------------------------------

    pub(crate) fn set_timer(&mut self, proc: ProcId, after: SimDuration, token: u64) {
        self.schedule_delivery(self.now + after, proc, Delivery::Timer { token });
    }

    // ------------------------------------------------------------------
    // Datagrams & multicast
    // ------------------------------------------------------------------

    /// Finds the first segment shared by two nodes. Traffic from a node
    /// to itself uses an implicit loopback segment (created lazily) so it
    /// never occupies a real medium.
    pub(crate) fn route(&mut self, src: NodeId, dst: NodeId) -> SimResult<SegmentId> {
        if src.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(src));
        }
        if dst.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(dst));
        }
        if src == dst {
            return Ok(self.loopback_segment());
        }
        let src_node = &self.nodes[src.index()];
        let dst_node = &self.nodes[dst.index()];
        for seg in &src_node.segments {
            if dst_node.segments.contains(seg) {
                return Ok(*seg);
            }
        }
        Err(SimError::NoRoute { src, dst })
    }

    /// The shared loopback segment for intra-node traffic.
    fn loopback_segment(&mut self) -> SegmentId {
        if let Some(id) = self.loopback {
            return id;
        }
        let id = self.add_segment(SegmentConfig::loopback());
        self.loopback = Some(id);
        id
    }

    /// Transmits one frame on a segment, modeling medium occupancy, and
    /// schedules its arrival. Returns the arrival time.
    pub(crate) fn transmit(
        &mut self,
        segment: SegmentId,
        frame: Frame,
        payload_bytes: usize,
    ) -> SimTime {
        let backoff_max = self.segments[segment.index()].config.backoff_max.as_nanos();
        let backoff = if backoff_max == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.gen_range(0..=backoff_max))
        };
        let seg = &mut self.segments[segment.index()];
        let timing = schedule_tx(
            &seg.config,
            self.now,
            seg.busy_until,
            backoff,
            payload_bytes,
        );
        if seg.config.half_duplex {
            seg.stats.busy += timing.end - timing.start;
            seg.busy_until = timing.end;
        } else {
            seg.stats.busy += timing.end - timing.start;
        }
        seg.stats.frames += 1;
        seg.stats.payload_bytes += payload_bytes as u64;
        let lost = seg.config.loss > 0.0 && self.rng.gen_bool(seg.config.loss);
        if lost {
            self.segments[segment.index()].stats.dropped += 1;
            self.trace.bump(metric_id!("frames.lost"), 1);
        } else {
            self.schedule(timing.arrival, EventKind::FrameArrival { segment, frame });
        }
        timing.arrival
    }

    /// Datagram wire overhead (UDP+IP style), bytes.
    pub(crate) const DGRAM_HEADER: usize = 28;
    /// Stream wire overhead (TCP+IP style), bytes.
    pub(crate) const STREAM_HEADER: usize = 40;

    pub(crate) fn send_datagram(
        &mut self,
        from: ProcId,
        src_port: u16,
        dst: Addr,
        data: Payload,
    ) -> SimResult<()> {
        // Validate early so callers get errors synchronously, then defer
        // past the sender's modeled CPU time.
        let src_node = self.node_of(from)?;
        self.route(src_node, dst.node)?;
        let action = EmitAction::Datagram {
            src_port,
            dst,
            data,
        };
        self.emit_or_defer(from, action);
        Ok(())
    }

    fn send_datagram_now(
        &mut self,
        from: ProcId,
        src_port: u16,
        dst: Addr,
        data: Payload,
    ) -> SimResult<()> {
        let src_node = self.node_of(from)?;
        let segment = self.route(src_node, dst.node)?;
        // Oversized datagrams are silently truncated to the MTU budget in
        // real UDP/IP via fragmentation; we model the extra frames' cost by
        // charging the full wire size even when above MTU.
        let wire = data.len() + Self::DGRAM_HEADER;
        let frame = Frame {
            src_node,
            dst: FrameDst::Unicast(dst.node),
            payload: FramePayload::Datagram {
                src: Addr::new(src_node, src_port),
                dst,
                data,
                multicast: false,
            },
        };
        self.transmit(segment, frame, wire);
        Ok(())
    }

    /// Multicasts `data` to `group` on every segment the sender's node is
    /// attached to. Local group members on the same node receive it too
    /// (with loopback delay of zero).
    pub(crate) fn send_multicast(
        &mut self,
        from: ProcId,
        src_port: u16,
        group: u16,
        data: Payload,
    ) -> SimResult<()> {
        self.node_of(from)?;
        let action = EmitAction::Multicast {
            src_port,
            group,
            data,
        };
        self.emit_or_defer(from, action);
        Ok(())
    }

    fn send_multicast_now(
        &mut self,
        from: ProcId,
        src_port: u16,
        group: u16,
        data: Payload,
    ) -> SimResult<()> {
        let src_node = self.node_of(from)?;
        let wire = data.len() + Self::DGRAM_HEADER;
        // Index-based walk (transmit needs `&mut self`), and `data.clone()`
        // is an O(1) refcount bump: one backing buffer serves every segment.
        for i in 0..self.nodes[src_node.index()].segments.len() {
            let segment = self.nodes[src_node.index()].segments[i];
            // IGMP-snooping-style pruning: a frame only occupies a segment
            // if some other attached node has a live member of the group.
            // Without this, a multi-homed host floods every low-bandwidth
            // native segment (mote radio, piconet) with middleware
            // announcements none of its nodes subscribe to, and an
            // oversubscribed medium backlogs the scheduler without bound.
            let seg_state = &self.segments[segment.index()];
            let has_listener = seg_state.groups.get(&group).is_some_and(|members| {
                members.iter().any(|p| {
                    self.procs
                        .get(p.index())
                        .map(|s| s.alive && s.node != src_node && self.on_segment(s.node, segment))
                        .unwrap_or(false)
                })
            });
            if !has_listener {
                self.trace.bump(metric_id!("multicast.pruned"), 1);
                continue;
            }
            let frame = Frame {
                src_node,
                dst: FrameDst::Group(group),
                payload: FramePayload::Datagram {
                    src: Addr::new(src_node, src_port),
                    dst: Addr::new(src_node, group),
                    data: data.clone(),
                    multicast: true,
                },
            };
            self.transmit(segment, frame, wire);
        }
        Ok(())
    }

    /// Resolves the receiving process for a unicast datagram, counting
    /// undeliverable ones under `datagrams.no_listener`.
    fn unicast_binding(&mut self, dst: Addr) -> Option<ProcId> {
        let node = self.nodes.get(dst.node.index())?;
        if !node.alive {
            return None;
        }
        let Some(binding) = node.ports.get(&dst.port).copied() else {
            self.trace.bump(metric_id!("datagrams.no_listener"), 1);
            return None;
        };
        if binding.listener {
            self.trace.bump(metric_id!("datagrams.no_listener"), 1);
            return None;
        }
        Some(binding.proc)
    }

    /// Whether `node` is attached to `segment`: a walk of the node's
    /// own few segments, not of every node on the segment.
    fn on_segment(&self, node: NodeId, segment: SegmentId) -> bool {
        self.nodes[node.index()].segments.contains(&segment)
    }

    fn frame_arrival(&mut self, segment: SegmentId, frame: Frame) {
        match frame.payload {
            FramePayload::Datagram {
                src,
                dst,
                data,
                multicast,
            } => {
                if multicast {
                    let group = match frame.dst {
                        FrameDst::Group(g) => g,
                        FrameDst::Unicast(_) => return,
                    };
                    let mut members = self.member_buffers.pop().unwrap_or_default();
                    if let Some(m) = self.segments[segment.index()].groups.get(&group) {
                        members.extend(m.iter().copied().filter(|p| {
                            // A node does not hear its own multicast,
                            // and detached nodes hear nothing.
                            self.procs
                                .get(p.index())
                                .map(|s| {
                                    s.alive
                                        && s.node != frame.src_node
                                        && self.on_segment(s.node, segment)
                                })
                                .unwrap_or(false)
                        }));
                    }
                    match *members.as_slice() {
                        [] => self.recycle_members(members),
                        [member] => {
                            self.recycle_members(members);
                            let d = Datagram {
                                src,
                                dst: Addr::new(self.procs[member.index()].node, group),
                                data: data.clone(),
                                multicast: true,
                            };
                            self.schedule_delivery(self.now, member, Delivery::Datagram(d));
                        }
                        _ => {
                            // Fan-out: every member gets a view of the same
                            // backing buffer; `clone()` bumps a refcount, no
                            // bytes move. One scheduler entry carries them
                            // all, in the first member's place.
                            self.trace.bump(
                                metric_id!("payload.fanout_bytes_shared"),
                                (data.len() * (members.len() - 1)) as u64,
                            );
                            self.schedule(
                                self.now,
                                EventKind::DeliverFanout {
                                    src,
                                    group,
                                    data,
                                    members,
                                },
                            );
                        }
                    }
                } else {
                    let Some(proc) = self.unicast_binding(dst) else {
                        return;
                    };
                    let d = Datagram {
                        src,
                        dst,
                        data,
                        multicast: false,
                    };
                    self.schedule_delivery(self.now, proc, Delivery::Datagram(d));
                }
            }
            FramePayload::Stream(sf) => self.stream_frame_arrival(sf),
        }
    }

    /// Allocates an ephemeral port on a node.
    pub(crate) fn alloc_ephemeral(&mut self, node: NodeId) -> u16 {
        let n = &mut self.nodes[node.index()];
        loop {
            let port = n.next_ephemeral;
            n.next_ephemeral = n.next_ephemeral.checked_add(1).unwrap_or(EPHEMERAL_BASE);
            if !n.ports.contains_key(&port) {
                return port;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::StreamEvent;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Echoer;
    impl Process for Echoer {
        fn name(&self) -> &str {
            "echoer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(9).unwrap();
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
            ctx.send_to(9, d.src, d.data).unwrap();
        }
    }

    struct Pinger {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
        target: Addr,
    }
    impl Process for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7).unwrap();
            ctx.send_to(7, self.target, b"hello".to_vec()).unwrap();
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: Datagram) {
            self.got.borrow_mut().push(d.data.to_vec());
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId, SegmentId) {
        let mut w = World::new(1);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, seg).unwrap();
        w.attach(b, seg).unwrap();
        (w, a, b, seg)
    }

    #[test]
    fn datagram_round_trip() {
        let (mut w, a, b, _) = two_node_world();
        w.add_process(b, Box::new(Echoer));
        let got = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            a,
            Box::new(Pinger {
                got: Rc::clone(&got),
                target: Addr::new(b, 9),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(got.borrow().as_slice(), &[b"hello".to_vec()]);
    }

    #[test]
    fn no_route_between_disconnected_nodes() {
        let mut w = World::new(1);
        let s1 = w.add_segment(SegmentConfig::loopback());
        let s2 = w.add_segment(SegmentConfig::loopback());
        let a = w.add_node("a");
        let b = w.add_node("b");
        w.attach(a, s1).unwrap();
        w.attach(b, s2).unwrap();
        assert_eq!(w.route(a, b), Err(SimError::NoRoute { src: a, dst: b }));
    }

    #[test]
    fn piconet_rejects_ninth_member() {
        let mut w = World::new(1);
        let pico = w.add_segment(SegmentConfig::bluetooth_piconet());
        for i in 0..8 {
            let n = w.add_node(format!("dev{i}"));
            w.attach(n, pico).unwrap();
        }
        let extra = w.add_node("dev8");
        assert_eq!(w.attach(extra, pico), Err(SimError::SegmentFull(pico)));
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut w = World::new(1);
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.now(), SimTime::from_secs(3));
    }

    struct TimerProc {
        fired: Rc<RefCell<Vec<(u64, SimTime)>>>,
    }
    impl Process for TimerProc {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(30), 3);
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.fired.borrow_mut().push((token, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut w, a, _, _) = two_node_world();
        let fired = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            a,
            Box::new(TimerProc {
                fired: Rc::clone(&fired),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        let fired = fired.borrow();
        assert_eq!(
            fired.as_slice(),
            &[(1, SimTime::from_millis(10)), (3, SimTime::from_millis(30)),]
        );
    }

    struct BusyProc {
        handled: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Process for BusyProc {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Two timers at the same instant; the first handler burns 5 ms
            // of CPU, so the second fires 5 ms later.
            ctx.set_timer(SimDuration::from_millis(1), 0);
            ctx.set_timer(SimDuration::from_millis(1), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.handled.borrow_mut().push(ctx.now());
            ctx.busy(SimDuration::from_millis(5));
        }
    }

    #[test]
    fn busy_defers_subsequent_deliveries() {
        let (mut w, a, _, _) = two_node_world();
        let handled = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            a,
            Box::new(BusyProc {
                handled: Rc::clone(&handled),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        assert_eq!(
            handled.borrow().as_slice(),
            &[SimTime::from_millis(1), SimTime::from_millis(6)]
        );
    }

    /// Burns 1 ms of CPU on start, so deliveries queue behind it.
    struct SlowStarter;
    impl Process for SlowStarter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.busy(SimDuration::from_millis(1));
        }
    }

    /// Sends one local message to `to` on start.
    struct Poke {
        to: ProcId,
    }
    impl Process for Poke {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_local(self.to, ());
        }
    }

    /// A world whose next event is one deferred run of three pokes, from
    /// three senders, to a process busy until 1 ms.
    fn poked_world() -> World {
        let (mut w, a, _, _) = two_node_world();
        let slow = w.add_process(a, Box::new(SlowStarter));
        for _ in 0..3 {
            w.add_process(a, Box::new(Poke { to: slow }));
        }
        w.run_until(SimTime::ZERO);
        w
    }

    /// The fingerprint sees dispatch order: a `deliver_run` mutant that
    /// delivers its run back to front makes the same handler calls and
    /// moves the fingerprint.
    #[test]
    fn reordering_a_deferred_run_moves_the_dispatch_fingerprint() {
        let mut honest = poked_world();
        let mut mutant = poked_world();
        assert_eq!(honest.dispatch_fingerprint(), mutant.dispatch_fingerprint());
        assert!(matches!(
            mutant.peek_event(),
            Some(EventKind::DeliverRun { run, .. }) if run.len() == 3
        ));
        let (at, kind) = mutant.queue.pop().unwrap();
        let EventKind::DeliverRun { proc, mut run } = kind else {
            unreachable!("peeked a run");
        };
        mutant.advance_to(at);
        run.make_contiguous().reverse();
        mutant.deliver_run(proc, run);
        honest.run_until_idle();
        mutant.run_until_idle();
        assert_eq!(honest.handler_calls(), 7);
        assert_eq!(mutant.handler_calls(), 7);
        assert_ne!(honest.dispatch_fingerprint(), mutant.dispatch_fingerprint());
        let mut replay = poked_world();
        replay.run_until_idle();
        assert_eq!(honest.dispatch_fingerprint(), replay.dispatch_fingerprint());
    }

    struct GroupReceiver {
        got: Rc<RefCell<u32>>,
    }
    impl Process for GroupReceiver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join_group(1900).unwrap();
        }
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: Datagram) {
            assert!(d.multicast);
            *self.got.borrow_mut() += 1;
        }
    }

    struct GroupSender;
    impl Process for GroupSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(5000).unwrap();
            ctx.join_group(1900).unwrap();
            ctx.multicast(5000, 1900, b"NOTIFY".to_vec()).unwrap();
        }
    }

    #[test]
    fn multicast_reaches_other_members_not_sender() {
        let mut w = World::new(1);
        let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let nodes: Vec<NodeId> = (0..3).map(|i| w.add_node(format!("n{i}"))).collect();
        for n in &nodes {
            w.attach(*n, seg).unwrap();
        }
        let got = Rc::new(RefCell::new(0));
        w.add_process(
            nodes[0],
            Box::new(GroupReceiver {
                got: Rc::clone(&got),
            }),
        );
        w.add_process(
            nodes[1],
            Box::new(GroupReceiver {
                got: Rc::clone(&got),
            }),
        );
        w.add_process(nodes[2], Box::new(GroupSender));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(*got.borrow(), 2);
    }

    /// One handler call seen by the fan-out order test: (ns, receiver,
    /// payload tag).
    type CallLog = Rc<RefCell<Vec<(u64, &'static str, u8)>>>;

    /// A multicast group member (or, with `group` off, a plain port-7
    /// listener) that logs every datagram. It can start busy, and it can
    /// remove `victim` on its first datagram.
    struct LoggingMember {
        label: &'static str,
        group: bool,
        busy: SimDuration,
        victim: Rc<RefCell<Option<ProcId>>>,
        log: CallLog,
    }
    impl Process for LoggingMember {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7).unwrap();
            if self.group {
                ctx.join_group(1900).unwrap();
            }
            ctx.busy(self.busy);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
            let now = ctx.now().as_nanos();
            self.log.borrow_mut().push((now, self.label, d.data[0]));
            if let Some(victim) = self.victim.borrow_mut().take() {
                ctx.remove_process(victim).unwrap();
            }
        }
    }

    /// Sends, all at t = 0 and all the same length so they arrive in one
    /// tick on a switch: tagged unicasts (`(Some(node), tag)`) to port 7
    /// and multicasts (`(None, tag)`) to group 1900.
    struct Script {
        sends: Vec<(Option<NodeId>, u8)>,
    }
    impl Process for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7).unwrap();
            for &(dst, tag) in &self.sends {
                let data = vec![tag, 0, 0, 0];
                match dst {
                    Some(node) => ctx.send_to(7, Addr::new(node, 7), data).unwrap(),
                    None => ctx.multicast(7, 1900, data).unwrap(),
                }
            }
        }
    }

    /// Every handler call a multicast fan-out makes, in order, when:
    /// the first member (`a`) is busy and the entry before the frame is
    /// a delivery to it; a middle member (`m`) is busy and the entry
    /// after the frame is a delivery to it, while `n` is busy until the
    /// same instant; a member (`d`) dies between the frame's arrival and
    /// its fan-out; a member's handler (`b`) removes the next member
    /// (`c`); two frames (`1`, `2`) arrive in the same tick; and the
    /// last member (`e`) is busy with a delivery to it right after the
    /// second frame. The expected log is the order the kernel produced
    /// when it scheduled one `Deliver` per member.
    #[test]
    fn multicast_fanout_keeps_per_member_dispatch_order() {
        let mut w = World::new(1);
        let seg = w.add_segment(SegmentConfig::ethernet_100mbps_switch());
        let log = CallLog::default();
        let add = |w: &mut World, label, group, busy_ms, victim| {
            let node = w.add_node(label);
            w.attach(node, seg).unwrap();
            let proc = w.add_process(
                node,
                Box::new(LoggingMember {
                    label,
                    group,
                    busy: SimDuration::from_millis(busy_ms),
                    victim,
                    log: Rc::clone(&log),
                }),
            );
            (node, proc)
        };
        let none = || Rc::new(RefCell::new(None));
        let kill_d = none();
        let kill_c = none();
        let (k, _) = add(&mut w, "k", false, 0, Rc::clone(&kill_d));
        let (a, _) = add(&mut w, "a", true, 1, none());
        add(&mut w, "b", true, 0, Rc::clone(&kill_c));
        let (_, c) = add(&mut w, "c", true, 0, none());
        let (m, _) = add(&mut w, "m", true, 1, none());
        add(&mut w, "n", true, 1, none());
        let (_, d) = add(&mut w, "d", true, 0, none());
        let (e, _) = add(&mut w, "e", true, 2, none());
        *kill_c.borrow_mut() = Some(c);
        *kill_d.borrow_mut() = Some(d);
        let s = w.add_node("s");
        w.attach(s, seg).unwrap();
        let sends = vec![
            (Some(k), b'k'),
            (Some(a), b'a'),
            (None, b'1'),
            (Some(m), b'm'),
            (None, b'2'),
            (Some(e), b'e'),
        ];
        w.add_process(s, Box::new(Script { sends }));
        w.run_until_idle();

        // Each 32-byte datagram spends 5.6 µs on the wire and 20 µs in
        // flight.
        let t0 = 25_600;
        let ms = 1_000_000;
        let expected = [
            (t0, "k", b'k'),
            (t0, "b", b'1'),
            (t0, "b", b'2'),
            (ms, "a", b'a'),
            (ms, "a", b'1'),
            (ms, "m", b'1'),
            (ms, "n", b'1'),
            (ms, "m", b'm'),
            (ms, "a", b'2'),
            (ms, "m", b'2'),
            (ms, "n", b'2'),
            (2 * ms, "e", b'1'),
            (2 * ms, "e", b'2'),
            (2 * ms, "e", b'e'),
        ];
        assert_eq!(log.borrow().as_slice(), expected.as_slice());
    }

    /// A frame that reaches one member is a plain delivery, and the
    /// member list it gathered goes back to the pool empty: the next
    /// frame reaches each of its members once.
    #[test]
    fn one_member_frame_leaves_the_member_pool_empty() {
        let mut w = World::new(1);
        let seg = w.add_segment(SegmentConfig::ethernet_100mbps_switch());
        let log = CallLog::default();
        let member = |w: &mut World, label| {
            let node = w.add_node(label);
            w.attach(node, seg).unwrap();
            w.add_process(
                node,
                Box::new(LoggingMember {
                    label,
                    group: true,
                    busy: SimDuration::ZERO,
                    victim: Rc::new(RefCell::new(None)),
                    log: Rc::clone(&log),
                }),
            );
        };
        let sender = |w: &mut World, name, tag| {
            let node = w.add_node(name);
            w.attach(node, seg).unwrap();
            let sends = vec![(None, tag)];
            w.add_process(node, Box::new(Script { sends }));
        };
        member(&mut w, "x");
        sender(&mut w, "s1", b'1');
        w.run_until(SimTime::from_millis(1));
        member(&mut w, "y");
        sender(&mut w, "s2", b'2');
        w.run_until_idle();
        let (t0, t1) = (25_600, 1_025_600);
        let expected = [(t0, "x", b'1'), (t1, "x", b'2'), (t1, "y", b'2')];
        assert_eq!(log.borrow().as_slice(), expected.as_slice());
    }

    /// The wheel's slab stores every event by value; a fan-out carries
    /// its member list on the heap so events stay this small.
    #[test]
    fn event_kind_stays_small() {
        assert!(std::mem::size_of::<EventKind>() <= 80);
    }

    #[test]
    fn removed_process_gets_no_events() {
        let (mut w, a, b, _) = two_node_world();
        let p = w.add_process(b, Box::new(Echoer));
        let got = Rc::new(RefCell::new(Vec::new()));
        w.run_until(SimTime::from_millis(1));
        w.remove_process(p).unwrap();
        w.add_process(
            a,
            Box::new(Pinger {
                got: Rc::clone(&got),
                target: Addr::new(b, 9),
            }),
        );
        w.run_until(SimTime::from_secs(1));
        assert!(got.borrow().is_empty());
        assert_eq!(w.remove_process(p), Err(SimError::UnknownProcess(p)));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        /// Arrival time and body of every reply, in arrival order.
        type RoundTrips = Vec<(SimTime, Vec<u8>)>;
        /// Pings the echoer every 10 ms and logs each reply's arrival.
        struct PingSeries {
            target: Addr,
            sent: u8,
            log: Rc<RefCell<RoundTrips>>,
        }
        impl Process for PingSeries {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(7).unwrap();
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                ctx.send_to(7, self.target, vec![self.sent]).unwrap();
                self.sent += 1;
                if self.sent < 50 {
                    ctx.set_timer(SimDuration::from_millis(10), 0);
                }
            }
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
                self.log.borrow_mut().push((ctx.now(), d.data.to_vec()));
            }
        }
        /// The metrics snapshot and the round-trip log of a 30%-loss run.
        fn run(seed: u64) -> (String, RoundTrips) {
            let mut w = World::new(seed);
            let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub().with_loss(0.3));
            let a = w.add_node("a");
            let b = w.add_node("b");
            w.attach(a, seg).unwrap();
            w.attach(b, seg).unwrap();
            w.add_process(b, Box::new(Echoer));
            let log = Rc::new(RefCell::new(Vec::new()));
            w.add_process(
                a,
                Box::new(PingSeries {
                    target: Addr::new(b, 9),
                    sent: 0,
                    log: Rc::clone(&log),
                }),
            );
            w.run_until(SimTime::from_secs(1));
            let snapshot = w.trace().metrics().snapshot().to_json().to_string();
            (snapshot, log.take())
        }
        let first = run(42);
        assert!(
            (1..50).contains(&first.1.len()),
            "30% loss should drop some of the 50 round trips, not all: {}",
            first.1.len()
        );
        assert_eq!(first, run(42));
        let other = run(43);
        assert_ne!(first.0, other.0, "another seed loses other frames");
        assert_ne!(first.1, other.1);
    }

    // Stream smoke test lives in stream.rs; here we only check listener
    // bookkeeping through the public API.
    struct Listener;
    impl Process for Listener {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(80).unwrap();
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            if let StreamEvent::Data(d) = event {
                ctx.stream_send(stream, d).unwrap();
            }
        }
    }

    struct Connector {
        target: Addr,
        got: Rc<RefCell<Vec<u8>>>,
        stream: Option<StreamId>,
    }
    impl Process for Connector {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stream = Some(ctx.connect(self.target).unwrap());
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            match event {
                StreamEvent::Connected => {
                    ctx.stream_send(stream, b"ping".to_vec()).unwrap();
                }
                StreamEvent::Data(d) => self.got.borrow_mut().extend(d),
                _ => {}
            }
        }
    }

    #[test]
    fn stream_echo_round_trip() {
        let (mut w, a, b, _) = two_node_world();
        w.add_process(b, Box::new(Listener));
        let got = Rc::new(RefCell::new(Vec::new()));
        w.add_process(
            a,
            Box::new(Connector {
                target: Addr::new(b, 80),
                got: Rc::clone(&got),
                stream: None,
            }),
        );
        w.run_until(SimTime::from_secs(2));
        assert_eq!(got.borrow().as_slice(), b"ping");
    }

    /// Sends a 1000-byte datagram every 2 ms.
    struct Ticker {
        target: Addr,
    }
    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(7).unwrap();
            ctx.set_timer(SimDuration::from_millis(2), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_to(7, self.target, vec![0u8; 1000]).unwrap();
            ctx.set_timer(SimDuration::from_millis(2), 0);
        }
    }

    /// A segment's busy gauge id is resolved when the segment is added,
    /// so one added after the telemetry plane is enabled is still
    /// sampled, and the doctor reads its trailing utilization from the
    /// sampled series rather than falling back to the whole-run mean.
    #[test]
    fn segment_added_after_telemetry_is_sampled_and_diagnosed() {
        let (mut w, _, _, _) = two_node_world();
        w.enable_telemetry(TelemetryConfig {
            sampler: crate::SamplerConfig {
                interval: SimDuration::from_millis(100),
                window: 64,
            },
            ..TelemetryConfig::default()
        });
        w.run_until(SimTime::from_secs(1));
        let late = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let c = w.add_node("c");
        let d = w.add_node("d");
        w.attach(c, late).unwrap();
        w.attach(d, late).unwrap();
        w.add_process(d, Box::new(Echoer));
        w.add_process(
            c,
            Box::new(Ticker {
                target: Addr::new(d, 9),
            }),
        );
        w.run_until(SimTime::from_secs(3));

        let busy = MetricId::new(&format!("segment.seg{}.busy_ns", late.0));
        let series = w.telemetry().unwrap().gauge_series(busy).unwrap();
        assert!(series.len() > 8, "sampled {} times", series.len());
        let moved = series.last_value().unwrap() - series.value_back(8).unwrap();
        let trailing = moved as u64 * 1_000 / (8 * 100_000_000);
        let report = w.doctor().unwrap();
        let label = format!("seg{}:ethernet-10mbps-hub", late.0);
        let health = report.segments.iter().find(|s| s.label == label).unwrap();
        assert!(trailing > 0);
        assert_eq!(health.utilization_milli, trailing);
        let busy_ns = w.segments[late.0 as usize].stats.busy.as_nanos();
        let whole_run = busy_ns * 1_000 / w.now().as_nanos();
        assert!(whole_run < trailing, "{whole_run} vs {trailing}");
    }
}
