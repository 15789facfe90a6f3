//! The uMiddle runtime: a simnet process hosting the directory and
//! transport modules of one intermediary translator node.
//!
//! One runtime runs per participating host (the paper's H1, H2, …).
//! Mappers, native services and applications on the same node talk to it
//! through the local API ([`RuntimeRequest`]/[`RuntimeEvent`]); runtimes
//! talk to each other through the directory protocol (multicast + unicast
//! datagrams) and the transport protocol (streams carrying path messages).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use simnet::{
    metric_id, Addr, Ctx, Datagram, DetailArg, IntMap, LocalMessage, MetricId, ProcId, Process,
    SimDuration, SpanDetail, StreamEvent, StreamId,
};

use crate::api::{ConnectTarget, DirectoryEvent, RuntimeEvent, RuntimeRequest};
use crate::error::{CoreError, CoreResult};
use crate::id::{
    ConnectionId, PortRef, RuntimeId, TranslatorId, DST_DETAIL, LATE_DST_DETAIL, SRC_DETAIL,
};
use crate::intern::{self, Symbol};
use crate::message::UMessage;
use crate::profile::TranslatorProfile;
use crate::qos::{QosPolicy, TranslationBuffer};
use crate::query::Query;
use crate::replica::{DeltaOutcome, DirectoryReplica, ServeReply};
use crate::shape::{Direction, PortKind};
use crate::wire::{DeltaOp, FrameDecoder, WireMessage, WireTarget};

/// Timer token for the periodic advertise/expire tick.
const TIMER_TICK: u64 = 0;
/// Timer tokens at or above this value are QoS drain retries; the token
/// minus the base is the path uid.
const TIMER_DRAIN_BASE: u64 = 1;

/// Profile attribute carrying the registration time (virtual ns), used
/// by remote runtimes to compute `umiddle.discovery_latency`.
const REGISTERED_AT_ATTR: &str = "umiddle.registered-ns";

/// Interval between anti-entropy digests (and liveness sweeps).
const ADVERTISE_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// A remote origin silent for three advertise intervals is evicted with
/// all its entries.
const ORIGIN_TTL: SimDuration = SimDuration::from_nanos(ADVERTISE_INTERVAL.as_nanos() * 3);
/// Maximum unacknowledged local input deliveries per path.
const DELIVERY_CREDIT: u32 = 4;
/// How many of its own delta ops a runtime retains to serve
/// anti-entropy requests before falling back to snapshots.
const DELTA_LOG_CAP: usize = 256;

/// Configuration of a uMiddle runtime: its id and its deployment
/// addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// This runtime's federation-unique id.
    pub id: RuntimeId,
    /// Unicast datagram port for directory control traffic.
    pub directory_port: u16,
    /// Multicast group port shared by the federation.
    pub multicast_group: u16,
    /// Stream listener port for path messages.
    pub transport_port: u16,
}

impl RuntimeConfig {
    /// Default configuration for the given runtime id.
    pub fn new(id: RuntimeId) -> RuntimeConfig {
        RuntimeConfig {
            id,
            directory_port: 47_000,
            multicast_group: 47_010,
            transport_port: 47_001,
        }
    }
}

#[derive(Debug)]
struct LocalTranslator {
    profile: TranslatorProfile,
    delegate: ProcId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requester {
    /// A process on this node (with its connect token).
    Local(ProcId),
    /// Nobody to notify (connection created via a forwarded request).
    Remote,
}

#[derive(Debug)]
struct PathState {
    uid: u64,
    dst: PortRef,
    /// Transport address of the destination's home runtime, or `None`
    /// when the destination translator is hosted by this runtime.
    home: Option<Addr>,
    buffer: TranslationBuffer,
    inflight: u32,
    timer_pending: bool,
}

#[derive(Debug)]
struct Connection {
    id: ConnectionId,
    src: PortRef,
    src_kind: PortKind,
    target: ConnectTarget,
    qos: QosPolicy,
    requester: Requester,
    paths: Vec<PathState>,
}

#[derive(Debug)]
struct PeerLink {
    stream: StreamId,
    up: bool,
}

/// Statistics a runtime exposes for tests and benchmarks.
///
/// Obtain a shared handle with [`UmiddleRuntime::stats_handle`] *before*
/// moving the runtime into the world, then read it any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Path messages forwarded to local delegates.
    pub local_deliveries: u64,
    /// Path messages sent to remote runtimes.
    pub remote_sends: u64,
    /// Path messages received from remote runtimes.
    pub remote_receives: u64,
    /// Messages dropped by QoS policies on currently live paths.
    pub qos_dropped: u64,
    /// Bytes currently buffered across all live paths.
    pub buffered_bytes: usize,
    /// High-water mark of total buffered bytes across all paths.
    pub max_buffered_bytes: usize,
    /// Entries currently in the directory (local + replicated).
    pub directory_entries: u64,
    /// Virtual time (ns) of the last visible directory change, used by
    /// experiments to measure convergence after churn.
    pub last_directory_change_ns: u64,
}

/// The uMiddle runtime process. Add one to a node with
/// [`simnet::World::add_process`], then hand its [`ProcId`] to mappers,
/// native services and applications on that node.
///
/// # Examples
///
/// ```
/// use simnet::{SegmentConfig, SimTime, World};
/// use umiddle_core::{RuntimeConfig, RuntimeId, UmiddleRuntime};
///
/// let mut world = World::new(1);
/// let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
/// let host = world.add_node("host");
/// world.attach(host, hub)?;
/// let runtime = UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)));
/// let stats = runtime.stats_handle(); // keep before moving it in
/// let _rt = world.add_process(host, Box::new(runtime));
/// world.run_until(SimTime::from_secs(10));
/// assert_eq!(stats.borrow().local_deliveries, 0); // nothing wired yet
/// # Ok::<(), simnet::SimError>(())
/// ```
#[derive(Debug)]
pub struct UmiddleRuntime {
    cfg: RuntimeConfig,
    directory: DirectoryReplica,
    next_translator: u32,
    next_connection: u32,
    next_path_uid: u64,
    next_wire_token: u64,
    local_translators: IntMap<TranslatorId, LocalTranslator>,
    connections: IntMap<ConnectionId, Connection>,
    /// Source translator → source port → connections fanning out from
    /// that port. The outer level serves disappearance handling; the
    /// inner level is the per-output dispatch lookup.
    ///
    /// Every table keyed by an id, address or stream is an `IntMap`;
    /// the loops over them are order-free (removals, sums, invariant
    /// checks) or sort first (`on_stop`).
    src_index: IntMap<TranslatorId, IntMap<Symbol, Vec<ConnectionId>>>,
    /// Connections whose target is a query template (the late-binding
    /// candidates consulted on every appearance).
    query_conns: Vec<ConnectionId>,
    /// Destination translator → connections with a path to it.
    dst_index: IntMap<TranslatorId, Vec<ConnectionId>>,
    /// Remote home address → connections with a path via that peer
    /// (resumed when the peer stream connects or becomes writable).
    home_index: IntMap<Addr, Vec<ConnectionId>>,
    /// Path uid → owning connection, for QoS drain-retry timers.
    path_by_uid: IntMap<u64, ConnectionId>,
    /// Running sum of `occupancy_bytes` over all live paths, updated by
    /// delta at every buffer offer/poll so the watermark is O(1).
    buffered_total: usize,
    /// Running sum of QoS drops over all live paths (same scheme).
    dropped_total: u64,
    /// Reusable fan-out scratch so steady-state dispatch does not
    /// allocate.
    scratch: Vec<ConnectionId>,
    /// Reusable scratch for one-pass wire-frame decoding.
    decode_scratch: Vec<CoreResult<WireMessage>>,
    /// Reusable scratch for directory expiry/eviction sweeps, so the
    /// steady-state tick (nothing expired) allocates nothing.
    expire_scratch: Vec<TranslatorId>,
    /// Reusable scratch for directory events surfaced by delta/snapshot
    /// application.
    event_scratch: Vec<DirectoryEvent>,
    listeners: Vec<(ProcId, Query)>,
    /// Forwarded connect requests awaiting a reply: wire token →
    /// (local requester, its token, the source's home runtime). Ordered
    /// so a dead home's requests fail in a deterministic order.
    pending_connects: BTreeMap<u64, (ProcId, u64, RuntimeId)>,
    /// Outgoing links keyed by peer transport address.
    peers: IntMap<Addr, PeerLink>,
    /// Reverse map from stream to peer address (outgoing links).
    peer_by_stream: IntMap<StreamId, Addr>,
    /// Decoders for accepted (incoming) streams.
    incoming: IntMap<StreamId, FrameDecoder>,
    stats: Rc<RefCell<RuntimeStats>>,
    /// Metric scope prefix, `rt{N}` (see [`simnet::Metrics::scoped`]).
    scope: String,
    metrics: RtMetrics,
}

/// The runtime's `rt{N}.*` metric handles, resolved once at
/// construction; the fixed federation-wide names it updates per message
/// resolve through [`metric_id!`].
#[derive(Debug)]
struct RtMetrics {
    registrations: MetricId,
    advertisements_sent: MetricId,
    advertisements_expired: MetricId,
    connections_opened: MetricId,
    outputs: MetricId,
    qos_dropped: MetricId,
    drain_retries: MetricId,
    frames_decoded: MetricId,
    buffer_depth_bytes: MetricId,
    transport_latency: MetricId,
    queue_wait: MetricId,
}

impl RtMetrics {
    fn new(scope: &str) -> RtMetrics {
        let scoped = |name: &str| MetricId::new(&format!("{scope}.{name}"));
        RtMetrics {
            registrations: scoped("registrations"),
            advertisements_sent: scoped("advertisements_sent"),
            advertisements_expired: scoped("advertisements_expired"),
            connections_opened: scoped("connections_opened"),
            outputs: scoped("outputs"),
            qos_dropped: scoped("qos_dropped"),
            drain_retries: scoped("drain_retries"),
            frames_decoded: scoped("frames_decoded"),
            buffer_depth_bytes: scoped("buffer_depth_bytes"),
            transport_latency: scoped("transport_latency"),
            queue_wait: scoped("queue_wait"),
        }
    }
}

impl UmiddleRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> UmiddleRuntime {
        let scope = format!("rt{}", cfg.id.0);
        let metrics = RtMetrics::new(&scope);
        let directory = DirectoryReplica::new(cfg.id, DELTA_LOG_CAP);
        UmiddleRuntime {
            cfg,
            directory,
            next_translator: 1,
            next_connection: 1,
            next_path_uid: 0,
            next_wire_token: 1,
            local_translators: IntMap::default(),
            connections: IntMap::default(),
            src_index: IntMap::default(),
            query_conns: Vec::new(),
            dst_index: IntMap::default(),
            home_index: IntMap::default(),
            path_by_uid: IntMap::default(),
            buffered_total: 0,
            dropped_total: 0,
            scratch: Vec::new(),
            decode_scratch: Vec::new(),
            expire_scratch: Vec::new(),
            event_scratch: Vec::new(),
            listeners: Vec::new(),
            pending_connects: BTreeMap::new(),
            peers: IntMap::default(),
            peer_by_stream: IntMap::default(),
            incoming: IntMap::default(),
            stats: Rc::new(RefCell::new(RuntimeStats::default())),
            scope,
            metrics,
        }
    }

    /// This runtime's id.
    pub fn id(&self) -> RuntimeId {
        self.cfg.id
    }

    /// A shared handle to this runtime's statistics. Clone it before
    /// moving the runtime into a [`simnet::World`]; it stays readable
    /// while the simulation runs.
    pub fn stats_handle(&self) -> Rc<RefCell<RuntimeStats>> {
        Rc::clone(&self.stats)
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> RuntimeStats {
        *self.stats.borrow()
    }

    /// Checks the runtime's indexes against each other: the directory
    /// replica's port index (once a lookup has built it) is exactly what
    /// its entries imply and its own-op log agrees with its version
    /// watermark (see [`DirectoryReplica::check_invariants`]), every entry of the source, destination, home,
    /// query and path-uid indexes names a live connection that belongs
    /// there, every live connection and path is in each index it belongs
    /// to, the peer maps are mutual inverses, and the running buffer
    /// totals equal the sums over live paths. Returns the first violation
    /// found.
    ///
    /// Debug builds run it after every [`Process`] callback.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.directory.check_invariants()?;
        let live = |cid: &ConnectionId, index: &str| match self.connections.get(cid) {
            Some(conn) => Ok(conn),
            None => Err(format!("{index} names dead connection {cid}")),
        };
        let mut src_entries = 0;
        for (translator, by_port) in &self.src_index {
            for (port, cids) in by_port {
                for cid in cids {
                    let conn = live(cid, "src_index")?;
                    if conn.src.translator != *translator || conn.src.port != *port {
                        return Err(format!("src_index files {cid} under {translator}/{port}"));
                    }
                }
                src_entries += cids.len();
            }
        }
        if src_entries != self.connections.len() {
            return Err(format!(
                "src_index holds {src_entries} entries for {} connections",
                self.connections.len()
            ));
        }
        for cid in &self.query_conns {
            if !matches!(live(cid, "query_conns")?.target, ConnectTarget::Query(_)) {
                return Err(format!("query_conns names port connection {cid}"));
            }
        }
        for (translator, cids) in &self.dst_index {
            for cid in cids {
                if !live(cid, "dst_index")?
                    .paths
                    .iter()
                    .any(|p| p.dst.translator == *translator)
                {
                    return Err(format!("dst_index files {cid} under {translator}"));
                }
            }
        }
        for (home, cids) in &self.home_index {
            for cid in cids {
                if !live(cid, "home_index")?
                    .paths
                    .iter()
                    .any(|p| p.home == Some(*home))
                {
                    return Err(format!("home_index files {cid} under {home}"));
                }
            }
        }
        let mut paths = 0;
        let mut buffered = 0;
        let mut dropped = 0;
        for (cid, conn) in &self.connections {
            let by_src = self
                .src_index
                .get(&conn.src.translator)
                .and_then(|m| m.get(&conn.src.port));
            if !by_src.is_some_and(|v| v.contains(cid)) {
                return Err(format!("{cid} missing from src_index"));
            }
            let is_query = matches!(conn.target, ConnectTarget::Query(_));
            if is_query != self.query_conns.contains(cid) {
                return Err(format!("{cid} query_conns membership is wrong"));
            }
            for p in &conn.paths {
                if self.path_by_uid.get(&p.uid) != Some(cid) {
                    return Err(format!("path {} of {cid} missing from path_by_uid", p.uid));
                }
                if !self
                    .dst_index
                    .get(&p.dst.translator)
                    .is_some_and(|v| v.contains(cid))
                {
                    return Err(format!("path to {} of {cid} missing from dst_index", p.dst));
                }
                if let Some(home) = p.home {
                    if !self.home_index.get(&home).is_some_and(|v| v.contains(cid)) {
                        return Err(format!("path via {home} of {cid} missing from home_index"));
                    }
                }
                buffered += p.buffer.occupancy_bytes();
                dropped += p.buffer.stats().dropped();
            }
            paths += conn.paths.len();
        }
        for (uid, cid) in &self.path_by_uid {
            if !live(cid, "path_by_uid")?
                .paths
                .iter()
                .any(|p| p.uid == *uid)
            {
                return Err(format!("path_by_uid maps {uid} to {cid}, which lacks it"));
            }
        }
        if self.path_by_uid.len() != paths {
            return Err(format!(
                "path_by_uid holds {} uids for {paths} paths",
                self.path_by_uid.len()
            ));
        }
        for (home, link) in &self.peers {
            if self.peer_by_stream.get(&link.stream) != Some(home) {
                return Err(format!("peer {home} missing from peer_by_stream"));
            }
        }
        for (stream, home) in &self.peer_by_stream {
            if self.peers.get(home).map(|l| l.stream) != Some(*stream) {
                return Err(format!(
                    "peer_by_stream maps {stream:?} to {home}, which lacks it"
                ));
            }
        }
        if self.buffered_total != buffered {
            return Err(format!(
                "buffered_total is {} but paths buffer {buffered} bytes",
                self.buffered_total
            ));
        }
        if self.dropped_total != dropped {
            return Err(format!(
                "dropped_total is {} but paths dropped {dropped}",
                self.dropped_total
            ));
        }
        Ok(())
    }

    fn directory_addr(&self, ctx: &Ctx<'_>) -> Addr {
        Addr::new(ctx.node(), self.cfg.directory_port)
    }

    fn transport_addr(&self, ctx: &Ctx<'_>) -> Addr {
        Addr::new(ctx.node(), self.cfg.transport_port)
    }

    // ------------------------------------------------------------------
    // Directory protocol
    // ------------------------------------------------------------------

    /// Multicasts a directory-plane message, charging its encoded length
    /// to the federation-wide `directory.bytes_gossiped` counter (the
    /// measure E12 reports and `bench perf-dir --check` pins).
    fn gossip_multicast(&mut self, ctx: &mut Ctx<'_>, msg: &WireMessage) {
        let bytes = msg.encode();
        ctx.bump(metric_id!("directory.bytes_gossiped"), bytes.len() as u64);
        let _ = ctx.multicast(self.cfg.directory_port, self.cfg.multicast_group, bytes);
    }

    /// Unicasts a directory-plane message, with the same byte accounting
    /// as [`Self::gossip_multicast`].
    fn gossip_unicast(&mut self, ctx: &mut Ctx<'_>, to: Addr, msg: &WireMessage) {
        let bytes = msg.encode();
        ctx.bump(metric_id!("directory.bytes_gossiped"), bytes.len() as u64);
        let _ = ctx.send_to(self.cfg.directory_port, to, bytes);
    }

    /// Unicasts a control message (connect/disconnect plumbing — not
    /// directory gossip, so not charged to `directory.bytes_gossiped`).
    fn unicast_wire(&mut self, ctx: &mut Ctx<'_>, to: Addr, msg: &WireMessage) {
        let _ = ctx.send_to(self.cfg.directory_port, to, msg.encode());
    }

    /// A peer's directory (control) address, derived from its advertised
    /// transport address: by convention every runtime keeps the same
    /// offset between the two ports.
    fn peer_directory(&self, home: Addr) -> Addr {
        Addr::new(
            home.node,
            home.port
                .wrapping_sub(self.cfg.transport_port)
                .wrapping_add(self.cfg.directory_port),
        )
    }

    /// This runtime's anti-entropy digest: just its own watermark. Peers
    /// learn about third parties from those parties' own digests, which
    /// keeps the steady-state gossip payload a few dozen bytes no matter
    /// how large the federation or the table grows.
    fn own_digest(&self, ctx: &Ctx<'_>) -> WireMessage {
        WireMessage::Digest {
            origin: self.cfg.id,
            reply_to: self.directory_addr(ctx),
            home: self.transport_addr(ctx),
            vector: vec![(self.cfg.id, self.directory.own_version())],
        }
    }

    fn notify_listeners(&self, ctx: &mut Ctx<'_>, event: &DirectoryEvent) {
        for (proc, query) in &self.listeners {
            let interested = match event {
                DirectoryEvent::Appeared(profile) => query.matches(profile),
                // Disappearance carries no profile; deliver to everyone
                // (listeners track what they saw appear).
                DirectoryEvent::Disappeared(_) => true,
            };
            if interested {
                // Profiles are Arc-backed, so this clone is a refcount
                // bump: N listeners cost O(1) work each, not a deep copy
                // of the profile per listener.
                ctx.send_local(*proc, RuntimeEvent::Directory(event.clone()));
            }
        }
    }

    /// Refreshes the stats-plane view of the directory after a visible
    /// change (entry count + change timestamp drive E12's convergence
    /// measurement).
    fn note_directory_change(&mut self, ctx: &Ctx<'_>) {
        let mut stats = self.stats.borrow_mut();
        stats.directory_entries = self.directory.table().len() as u64;
        stats.last_directory_change_ns = ctx.now().as_nanos();
    }

    /// Records discovery latency for a profile seen for the first time
    /// (registration stamp to first sight; virtual time is
    /// federation-global).
    fn observe_discovery(&self, ctx: &mut Ctx<'_>, profile: &TranslatorProfile) {
        if let Some(reg_ns) = profile
            .attr(REGISTERED_AT_ATTR)
            .and_then(|v| v.parse().ok())
        {
            let d = ctx.now() - simnet::SimTime::from_nanos(reg_ns);
            ctx.observe(metric_id!("umiddle.discovery_latency"), d);
        }
    }

    /// Dispatches directory events surfaced by delta/snapshot
    /// application: appearance metrics, listener notification, and
    /// late-binding.
    fn process_directory_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<DirectoryEvent>) {
        for event in events.drain(..) {
            match event {
                DirectoryEvent::Appeared(profile) => {
                    ctx.bump(metric_id!("umiddle.directory_appearances"), 1);
                    self.observe_discovery(ctx, &profile);
                    self.handle_appearance(ctx, &profile);
                }
                DirectoryEvent::Disappeared(id) => self.handle_disappearance(ctx, id),
            }
        }
    }

    fn handle_appearance(&mut self, ctx: &mut Ctx<'_>, profile: &TranslatorProfile) {
        self.note_directory_change(ctx);
        self.notify_listeners(ctx, &DirectoryEvent::Appeared(profile.clone()));
        self.bind_query_connections(ctx, profile);
    }

    fn handle_disappearance(&mut self, ctx: &mut Ctx<'_>, id: TranslatorId) {
        self.note_directory_change(ctx);
        self.notify_listeners(ctx, &DirectoryEvent::Disappeared(id));
        // Remove connections whose source vanished; the source index
        // names them directly, no sweep over unrelated connections.
        if let Some(by_port) = self.src_index.remove(&id) {
            for cid in by_port.into_values().flatten() {
                if let Some(conn) = self.connections.remove(&cid) {
                    // Its src_index entry is already gone with `by_port`.
                    if matches!(conn.target, ConnectTarget::Query(_)) {
                        self.query_conns.retain(|c| *c != cid);
                    }
                    for p in &conn.paths {
                        self.unindex_path(cid, p, &[]);
                    }
                }
            }
        }
        // Unbind paths targeting the vanished translator; the
        // destination index names the affected connections.
        let mut unbound: Vec<(ConnectionId, Requester, PortRef)> = Vec::new();
        for cid in self.dst_index.remove(&id).unwrap_or_default() {
            let Some(conn) = self.connections.get_mut(&cid) else {
                continue;
            };
            let requester = conn.requester;
            let mut removed = Vec::new();
            let mut i = 0;
            while i < conn.paths.len() {
                if conn.paths[i].dst.translator == id {
                    removed.push(conn.paths.remove(i));
                } else {
                    i += 1;
                }
            }
            // Homes still used by surviving paths must stay indexed.
            let live_homes: Vec<Addr> = conn.paths.iter().filter_map(|p| p.home).collect();
            for p in removed {
                self.unindex_path(cid, &p, &live_homes);
                unbound.push((cid, requester, p.dst));
            }
        }
        for (connection, requester, dst) in unbound {
            if let Requester::Local(proc) = requester {
                ctx.send_local(proc, RuntimeEvent::PathUnbound { connection, dst });
            }
        }
    }

    /// Registers a (new, empty-buffer) path in the uid, destination and
    /// home indexes.
    fn index_path(&mut self, cid: ConnectionId, uid: u64, dst: TranslatorId, home: Option<Addr>) {
        self.path_by_uid.insert(uid, cid);
        let by_dst = self.dst_index.entry(dst).or_default();
        if !by_dst.contains(&cid) {
            by_dst.push(cid);
        }
        if let Some(home) = home {
            let by_home = self.home_index.entry(home).or_default();
            if !by_home.contains(&cid) {
                by_home.push(cid);
            }
        }
    }

    /// Drops a removed path's index entries and subtracts its buffered
    /// bytes and drop count from the running totals. `live_homes` lists
    /// home addresses the connection still reaches through other paths
    /// (those keep their home-index entry).
    fn unindex_path(&mut self, cid: ConnectionId, p: &PathState, live_homes: &[Addr]) {
        self.path_by_uid.remove(&p.uid);
        if let Some(v) = self.dst_index.get_mut(&p.dst.translator) {
            v.retain(|c| *c != cid);
            if v.is_empty() {
                self.dst_index.remove(&p.dst.translator);
            }
        }
        if let Some(home) = p.home {
            if !live_homes.contains(&home) {
                if let Some(v) = self.home_index.get_mut(&home) {
                    v.retain(|c| *c != cid);
                    if v.is_empty() {
                        self.home_index.remove(&home);
                    }
                }
            }
        }
        self.buffered_total -= p.buffer.occupancy_bytes();
        self.dropped_total -= p.buffer.stats().dropped();
    }

    /// Drops every index entry for a connection removed from the table.
    fn unindex_connection(&mut self, conn: &Connection) {
        if let Some(by_port) = self.src_index.get_mut(&conn.src.translator) {
            if let Some(v) = by_port.get_mut(&conn.src.port) {
                v.retain(|c| *c != conn.id);
                if v.is_empty() {
                    by_port.remove(&conn.src.port);
                }
            }
            if by_port.is_empty() {
                self.src_index.remove(&conn.src.translator);
            }
        }
        if matches!(conn.target, ConnectTarget::Query(_)) {
            self.query_conns.retain(|c| *c != conn.id);
        }
        for p in &conn.paths {
            self.unindex_path(conn.id, p, &[]);
        }
    }

    fn on_wire_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        // Every runtime on this thread receives the same directory
        // multicast as a view of one buffer: the first decodes it, the
        // rest borrow that message (see `crate::intern`).
        if let Some(msg) = intern::shared_frame(&dgram.data) {
            self.on_gossip(ctx, &msg);
            return;
        }
        let msg = match WireMessage::decode(&dgram.data) {
            Ok(m) => m,
            Err(_) => {
                ctx.bump("umiddle.wire_decode_errors", 1);
                return;
            }
        };
        match msg {
            msg @ (WireMessage::Probe { .. }
            | WireMessage::Delta { .. }
            | WireMessage::Digest { .. }) => {
                let msg = Rc::new(msg);
                intern::store_frame(dgram.data, Rc::clone(&msg));
                self.on_gossip(ctx, &msg);
            }
            WireMessage::DeltaRequest {
                origin,
                from,
                reply_to,
            } => {
                if origin != self.cfg.id {
                    return; // only the origin serves its own history
                }
                let home = self.transport_addr(ctx);
                match self.directory.serve_request(from) {
                    ServeReply::Ops { first, ops } => {
                        self.gossip_unicast(
                            ctx,
                            reply_to,
                            &WireMessage::Delta {
                                origin,
                                home,
                                first,
                                ops,
                            },
                        );
                    }
                    ServeReply::Snapshot { version, profiles } => {
                        self.gossip_unicast(
                            ctx,
                            reply_to,
                            &WireMessage::Snapshot {
                                origin,
                                home,
                                version,
                                profiles,
                            },
                        );
                    }
                }
            }
            WireMessage::Snapshot {
                origin,
                home,
                version,
                profiles,
            } => {
                if origin == self.cfg.id {
                    return;
                }
                let mut events = std::mem::take(&mut self.event_scratch);
                events.clear();
                let changes = self.directory.apply_snapshot(
                    origin,
                    home,
                    version,
                    &profiles,
                    ctx.now(),
                    &mut events,
                );
                if changes > 0 {
                    ctx.bump(metric_id!("directory.deltas_applied"), changes);
                }
                self.process_directory_events(ctx, &mut events);
                self.event_scratch = events;
            }
            WireMessage::ConnectReply { token, result } => {
                if let Some((proc, local_token, _)) = self.pending_connects.remove(&token) {
                    let event = match result {
                        Ok(connection) => RuntimeEvent::Connected {
                            token: local_token,
                            connection,
                        },
                        Err(reason) => RuntimeEvent::ConnectFailed {
                            token: local_token,
                            reason,
                        },
                    };
                    ctx.send_local(proc, event);
                }
            }
            // Control requests normally arrive over streams, but accept
            // them by datagram too (they fit easily).
            WireMessage::ConnectRequest {
                token,
                reply_to,
                src,
                target,
                qos,
            } => self.handle_connect_request(ctx, token, reply_to, src, target, qos),
            WireMessage::DisconnectRequest { connection } => {
                self.remove_connection(ctx, connection);
            }
            WireMessage::PathMessage { .. } => {
                ctx.bump("umiddle.path_on_datagram", 1);
            }
        }
    }

    /// Handles a directory-plane multicast kind, borrowed from the frame
    /// slot the receivers of one frame share.
    fn on_gossip(&mut self, ctx: &mut Ctx<'_>, msg: &WireMessage) {
        match *msg {
            WireMessage::Probe { reply_to } => {
                // Boot sync: the digest tells the prober our watermark;
                // it requests the range it is missing (all of it) and we
                // serve ops or a snapshot.
                let digest = self.own_digest(ctx);
                self.gossip_unicast(ctx, reply_to, &digest);
            }
            WireMessage::Delta {
                origin,
                home,
                first,
                ref ops,
            } => {
                if origin == self.cfg.id {
                    return; // our own delta echoed back
                }
                let mut events = std::mem::take(&mut self.event_scratch);
                events.clear();
                let outcome =
                    self.directory
                        .apply_delta(origin, home, first, ops, ctx.now(), &mut events);
                match outcome {
                    DeltaOutcome::Applied(n) => {
                        if n > 0 {
                            ctx.bump(metric_id!("directory.deltas_applied"), n);
                        }
                    }
                    DeltaOutcome::Gap { from } => {
                        // Missed earlier deltas: drop this one and pull
                        // exactly the missing range from the origin.
                        if self
                            .directory
                            .note_request(origin, ctx.now(), ADVERTISE_INTERVAL)
                        {
                            ctx.bump(metric_id!("directory.antientropy_repairs"), 1);
                            let reply_to = self.directory_addr(ctx);
                            let to = self.peer_directory(home);
                            self.gossip_unicast(
                                ctx,
                                to,
                                &WireMessage::DeltaRequest {
                                    origin,
                                    from,
                                    reply_to,
                                },
                            );
                        }
                    }
                    DeltaOutcome::Ignored => {}
                }
                self.process_directory_events(ctx, &mut events);
                self.event_scratch = events;
            }
            WireMessage::Digest {
                origin,
                reply_to,
                home: _,
                ref vector,
            } => {
                if origin == self.cfg.id {
                    return; // our own digest echoed back
                }
                if let Some(from) =
                    self.directory
                        .observe_digest(origin, vector, ctx.now(), ADVERTISE_INTERVAL)
                {
                    ctx.bump(metric_id!("directory.antientropy_repairs"), 1);
                    let my_reply = self.directory_addr(ctx);
                    self.gossip_unicast(
                        ctx,
                        reply_to,
                        &WireMessage::DeltaRequest {
                            origin,
                            from,
                            reply_to: my_reply,
                        },
                    );
                }
            }
            _ => unreachable!("only Probe, Delta and Digest frames are shared"),
        }
    }

    // ------------------------------------------------------------------
    // Registration & lookup
    // ------------------------------------------------------------------

    fn handle_register(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        token: u64,
        profile: TranslatorProfile,
        delegate: ProcId,
    ) {
        let id = TranslatorId::new(self.cfg.id, self.next_translator);
        self.next_translator += 1;
        // Stamp the registration time so remote runtimes can measure
        // discovery latency when the profile first reaches them.
        let profile = profile
            .with_id(id)
            .with_attr(REGISTERED_AT_ATTR, ctx.now().as_nanos().to_string());
        let home = self.transport_addr(ctx);
        self.local_translators.insert(
            id,
            LocalTranslator {
                profile: profile.clone(),
                delegate,
            },
        );
        ctx.send_local(
            from,
            RuntimeEvent::Registered {
                token,
                translator: id,
            },
        );
        ctx.bump(metric_id!("umiddle.registrations"), 1);
        ctx.bump(self.metrics.registrations, 1);
        // Event-driven delta: the registration is gossiped once, as the
        // next versioned op in our stream.
        let first = self.directory.record_local_add(profile.clone(), home);
        ctx.bump(self.metrics.advertisements_sent, 1);
        self.gossip_multicast(
            ctx,
            &WireMessage::Delta {
                origin: self.cfg.id,
                home,
                first,
                ops: vec![DeltaOp::Add(profile.clone())],
            },
        );
        self.handle_appearance(ctx, &profile);
    }

    fn handle_unregister(&mut self, ctx: &mut Ctx<'_>, translator: TranslatorId) {
        if self.local_translators.remove(&translator).is_none() {
            return;
        }
        if let Some(first) = self.directory.record_local_remove(translator) {
            let home = self.transport_addr(ctx);
            self.gossip_multicast(
                ctx,
                &WireMessage::Delta {
                    origin: self.cfg.id,
                    home,
                    first,
                    ops: vec![DeltaOp::Remove(translator)],
                },
            );
        }
        self.handle_disappearance(ctx, translator);
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    /// Validates that `src` names a digital output port; returns its kind.
    fn validate_src(&self, src: &PortRef) -> CoreResult<PortKind> {
        let entry = self
            .directory
            .table()
            .get(src.translator)
            .ok_or(CoreError::UnknownTranslator(src.translator))?;
        let port = entry
            .profile
            .shape()
            .port(&src.port)
            .ok_or(CoreError::UnknownPort(*src))?;
        if port.direction != Direction::Output {
            return Err(CoreError::Incompatible(format!(
                "source port {src} is not an output"
            )));
        }
        if !port.kind.is_digital() {
            return Err(CoreError::Incompatible(format!(
                "source port {src} is not digital"
            )));
        }
        Ok(port.kind.clone())
    }

    /// Validates a static destination against the source kind; returns
    /// the destination's home address (`None` when local).
    fn validate_dst(&self, src_kind: &PortKind, dst: &PortRef) -> CoreResult<Option<Addr>> {
        let entry = self
            .directory
            .table()
            .get(dst.translator)
            .ok_or(CoreError::UnknownTranslator(dst.translator))?;
        let port = entry
            .profile
            .shape()
            .port(&dst.port)
            .ok_or(CoreError::UnknownPort(*dst))?;
        if port.direction != Direction::Input {
            return Err(CoreError::Incompatible(format!(
                "destination port {dst} is not an input"
            )));
        }
        if !port.kind.matches(src_kind) {
            return Err(CoreError::Incompatible(format!(
                "data types differ: {} vs {}",
                src_kind, port.kind
            )));
        }
        Ok(if entry.local { None } else { Some(entry.home) })
    }

    fn new_path(&mut self, dst: PortRef, home: Option<Addr>, qos: &QosPolicy) -> PathState {
        let uid = self.next_path_uid;
        self.next_path_uid += 1;
        PathState {
            uid,
            dst,
            home,
            buffer: TranslationBuffer::new(qos.clone()),
            inflight: 0,
            timer_pending: false,
        }
    }

    /// Creates a connection whose source translator is hosted locally.
    fn connect_local_src(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: PortRef,
        target: ConnectTarget,
        qos: QosPolicy,
        requester: Requester,
    ) -> CoreResult<ConnectionId> {
        let src_kind = self.validate_src(&src)?;
        let id = ConnectionId::new(self.cfg.id, self.next_connection);
        let corr = id.corr();
        ctx.span(corr, "connect", src.detail(SRC_DETAIL));
        let mut paths = Vec::new();
        match &target {
            ConnectTarget::Port(dst) => {
                let home = self.validate_dst(&src_kind, dst)?;
                paths.push(self.new_path(*dst, home, &qos));
            }
            ConnectTarget::Query(query) => {
                let matches = self.query_bindings(query, &src, &src_kind);
                ctx.span(
                    corr,
                    "directory.lookup",
                    format!("query={query} matches={}", matches.len()),
                );
                for (dst, home) in matches {
                    paths.push(self.new_path(dst, home, &qos));
                }
            }
        }
        self.next_connection += 1;
        let bound: Vec<PortRef> = paths.iter().map(|p| p.dst).collect();
        self.src_index
            .entry(src.translator)
            .or_default()
            .entry(src.port)
            .or_default()
            .push(id);
        if matches!(target, ConnectTarget::Query(_)) {
            self.query_conns.push(id);
        }
        for p in &paths {
            self.index_path(id, p.uid, p.dst.translator, p.home);
        }
        self.connections.insert(
            id,
            Connection {
                id,
                src,
                src_kind,
                target,
                qos,
                requester,
                paths,
            },
        );
        ctx.bump(metric_id!("umiddle.connections"), 1);
        ctx.bump(self.metrics.connections_opened, 1);
        for dst in &bound {
            ctx.span(corr, "path.bound", dst.detail(DST_DETAIL));
        }
        if let Requester::Local(proc) = requester {
            for dst in bound {
                ctx.send_local(
                    proc,
                    RuntimeEvent::PathBound {
                        connection: id,
                        dst,
                    },
                );
            }
        }
        Ok(id)
    }

    /// Finds `(dst port, home)` bindings for a query template: every
    /// directory profile matching the query contributes its first input
    /// port whose type matches the source.
    fn query_bindings(
        &self,
        query: &Query,
        src: &PortRef,
        src_kind: &PortKind,
    ) -> Vec<(PortRef, Option<Addr>)> {
        let mut out = Vec::new();
        for entry in self.directory.table().lookup_entries(query) {
            let profile = &entry.profile;
            if profile.id() == src.translator {
                continue;
            }
            let port = profile
                .shape()
                .ports_in(Direction::Input)
                .find(|p| p.kind.is_digital() && p.kind.matches(src_kind));
            if let Some(port) = port {
                out.push((
                    PortRef::new(profile.id(), port.name.clone()),
                    if entry.local { None } else { Some(entry.home) },
                ));
            }
        }
        out
    }

    /// Adds paths to query connections when a new profile appears.
    fn bind_query_connections(&mut self, ctx: &mut Ctx<'_>, profile: &TranslatorProfile) {
        let entry_home =
            self.directory
                .table()
                .get(profile.id())
                .map(|e| if e.local { None } else { Some(e.home) });
        let Some(home) = entry_home else { return };
        // Only query-target connections can bind late. Binding touches
        // the connection and path indexes, never `query_conns`, so walk
        // it by index instead of cloning it.
        for i in 0..self.query_conns.len() {
            let cid = self.query_conns[i];
            let Some(conn) = self.connections.get(&cid) else {
                continue;
            };
            let ConnectTarget::Query(query) = &conn.target else {
                continue;
            };
            if profile.id() == conn.src.translator
                || !query.matches(profile)
                || conn.paths.iter().any(|p| p.dst.translator == profile.id())
            {
                continue;
            }
            let port = profile
                .shape()
                .ports_in(Direction::Input)
                .find(|p| p.kind.is_digital() && p.kind.matches(&conn.src_kind))
                .map(|p| p.name.clone());
            let Some(port) = port else { continue };
            let dst = PortRef::new(profile.id(), port);
            ctx.span(cid.corr(), "path.bound", dst.detail(LATE_DST_DETAIL));
            let qos = conn.qos.clone();
            let requester = conn.requester;
            let path = self.new_path(dst, home, &qos);
            self.index_path(cid, path.uid, path.dst.translator, path.home);
            if let Some(conn) = self.connections.get_mut(&cid) {
                conn.paths.push(path);
            }
            if let Requester::Local(proc) = requester {
                ctx.send_local(
                    proc,
                    RuntimeEvent::PathBound {
                        connection: cid,
                        dst,
                    },
                );
            }
        }
    }

    fn handle_connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        token: u64,
        src: PortRef,
        target: ConnectTarget,
        qos: QosPolicy,
    ) {
        // Source hosted here: create the connection directly.
        if src.translator.runtime == self.cfg.id {
            let result = self.connect_local_src(ctx, src, target, qos, Requester::Local(from));
            let event = match result {
                Ok(connection) => RuntimeEvent::Connected { token, connection },
                Err(e) => RuntimeEvent::ConnectFailed {
                    token,
                    reason: e.to_string(),
                },
            };
            ctx.send_local(from, event);
            return;
        }
        // Source is remote: forward to its home runtime.
        let Some(entry) = self.directory.table().get(src.translator) else {
            ctx.send_local(
                from,
                RuntimeEvent::ConnectFailed {
                    token,
                    reason: CoreError::UnknownTranslator(src.translator).to_string(),
                },
            );
            return;
        };
        let home = entry.home;
        let wire_token = self.next_wire_token;
        self.next_wire_token += 1;
        self.pending_connects
            .insert(wire_token, (from, token, src.translator.runtime));
        let reply_to = self.directory_addr(ctx);
        let wire_target = match target {
            ConnectTarget::Port(p) => WireTarget::Port(p),
            ConnectTarget::Query(q) => WireTarget::Query(q),
        };
        // Control traffic goes to the peer's directory port; we only know
        // its transport address from advertisements, so derive it.
        let peer_directory = self.peer_directory(home);
        self.unicast_wire(
            ctx,
            peer_directory,
            &WireMessage::ConnectRequest {
                token: wire_token,
                reply_to,
                src,
                target: wire_target,
                qos,
            },
        );
    }

    /// Answers every connect forwarded to `home` with `ConnectFailed`:
    /// the liveness sweep just evicted it, so no reply will come.
    fn fail_pending_connects(&mut self, ctx: &mut Ctx<'_>, home: RuntimeId) {
        let reason = CoreError::HomeUnreachable(home).to_string();
        let mut failed = Vec::new();
        self.pending_connects.retain(|_, &mut (proc, token, h)| {
            let dead = h == home;
            if dead {
                failed.push((proc, token));
            }
            !dead
        });
        for (proc, token) in failed {
            ctx.send_local(
                proc,
                RuntimeEvent::ConnectFailed {
                    token,
                    reason: reason.clone(),
                },
            );
        }
    }

    fn handle_connect_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        reply_to: Addr,
        src: PortRef,
        target: WireTarget,
        qos: QosPolicy,
    ) {
        let target = match target {
            WireTarget::Port(p) => ConnectTarget::Port(p),
            WireTarget::Query(q) => ConnectTarget::Query(q),
        };
        let result = if src.translator.runtime == self.cfg.id {
            self.connect_local_src(ctx, src, target, qos, Requester::Remote)
                .map_err(|e| e.to_string())
        } else {
            Err("source translator is not hosted here".to_owned())
        };
        self.unicast_wire(ctx, reply_to, &WireMessage::ConnectReply { token, result });
    }

    fn remove_connection(&mut self, ctx: &mut Ctx<'_>, connection: ConnectionId) {
        if connection.runtime == self.cfg.id {
            if let Some(conn) = self.connections.remove(&connection) {
                self.unindex_connection(&conn);
            }
            return;
        }
        // Owned by a remote runtime: forward the disconnect there (any
        // directory entry from that runtime gives us its address).
        let home = self
            .directory
            .table()
            .origin_entries(connection.runtime)
            .find(|e| !e.local)
            .map(|e| e.home);
        if let Some(home) = home {
            let peer_directory = self.peer_directory(home);
            self.unicast_wire(
                ctx,
                peer_directory,
                &WireMessage::DisconnectRequest { connection },
            );
        }
    }

    // ------------------------------------------------------------------
    // Message forwarding
    // ------------------------------------------------------------------

    fn handle_output(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: ProcId,
        translator: TranslatorId,
        port: Symbol,
        mut msg: UMessage,
    ) {
        let Some(local) = self.local_translators.get(&translator) else {
            ctx.bump("umiddle.output_unknown_translator", 1);
            return;
        };
        if local.delegate != from {
            ctx.bump("umiddle.output_wrong_delegate", 1);
            return;
        }
        // Stamp the emission time so the delivering runtime can measure
        // end-to-end path latency (virtual time is federation-global).
        msg.trace.sent_at = Some(ctx.now());
        ctx.bump(self.metrics.outputs, 1);
        // Fan-out targets come straight from the per-port index; the
        // scratch buffer is reused so steady-state dispatch does not
        // allocate for the target list.
        let mut targets = std::mem::take(&mut self.scratch);
        targets.clear();
        if let Some(conns) = self.src_index.get(&translator).and_then(|m| m.get(&port)) {
            targets.extend_from_slice(conns);
        }
        for &cid in &targets {
            ctx.span(cid.corr(), "output.enqueue", msg.detail(port));
            if let Some(conn) = self.connections.get_mut(&cid) {
                let mut dropped = 0;
                for p in &mut conn.paths {
                    let occ_before = p.buffer.occupancy_bytes();
                    let drop_before = p.buffer.stats().dropped();
                    // Each path copy carries its own queue.wait span,
                    // closed when the copy is polled out of the buffer.
                    // A copy the QoS policy evicts leaves its span
                    // unclosed — visible in the span tree as a message
                    // that entered a buffer and never left.
                    let q = ctx.span_begin(
                        cid.corr(),
                        "queue.wait",
                        SpanDetail::new(
                            &["port=", " path=", ""],
                            [DetailArg::Str(port.as_static()), DetailArg::U64(p.uid)],
                        ),
                    );
                    let mut copy = msg.clone();
                    copy.trace.queue_span = Some(q);
                    if !p.buffer.offer(copy) {
                        ctx.span_end(q);
                        dropped += 1;
                    }
                    self.buffered_total =
                        self.buffered_total - occ_before + p.buffer.occupancy_bytes();
                    self.dropped_total =
                        self.dropped_total - drop_before + p.buffer.stats().dropped();
                }
                if dropped > 0 {
                    ctx.bump(metric_id!("umiddle.qos_dropped"), dropped);
                    ctx.bump(self.metrics.qos_dropped, dropped);
                }
            }
            self.drain_connection(ctx, cid);
        }
        self.scratch = targets;
        self.update_buffer_watermark(ctx);
    }

    fn update_buffer_watermark(&mut self, ctx: &mut Ctx<'_>) {
        // The totals are maintained incrementally around every buffer
        // offer/poll and at path removal; the debug builds cross-check
        // them against a full scan.
        debug_assert_eq!(
            self.buffered_total,
            self.connections
                .values()
                .flat_map(|c| c.paths.iter())
                .map(|p| p.buffer.occupancy_bytes())
                .sum::<usize>(),
            "buffered-bytes accounting drifted"
        );
        debug_assert_eq!(
            self.dropped_total,
            self.connections
                .values()
                .flat_map(|c| c.paths.iter())
                .map(|p| p.buffer.stats().dropped())
                .sum::<u64>(),
            "qos-drop accounting drifted"
        );
        ctx.gauge_set(self.metrics.buffer_depth_bytes, self.buffered_total as i64);
        let mut stats = self.stats.borrow_mut();
        stats.buffered_bytes = self.buffered_total;
        stats.qos_dropped = self.dropped_total;
        stats.max_buffered_bytes = stats.max_buffered_bytes.max(self.buffered_total);
    }

    /// Total bytes currently buffered across all paths (for E5).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_total
    }

    fn drain_connection(&mut self, ctx: &mut Ctx<'_>, cid: ConnectionId) {
        let Some(conn) = self.connections.get(&cid) else {
            return;
        };
        let n_paths = conn.paths.len();
        for idx in 0..n_paths {
            self.drain_path(ctx, cid, idx);
        }
    }

    /// Pushes buffered messages down one path, respecting delivery credit
    /// (local destinations), stream capacity (remote destinations) and the
    /// QoS rate limiter. Each message goes on its own: a local one as one
    /// [`RuntimeEvent::Input`] to the destination's delegate, a remote one
    /// as one framed [`WireMessage::PathMessage`] on the peer stream.
    fn drain_path(&mut self, ctx: &mut Ctx<'_>, cid: ConnectionId, idx: usize) {
        loop {
            let now = ctx.now();
            // Inspect state immutably first.
            let Some(conn) = self.connections.get(&cid) else {
                return;
            };
            let Some(path) = conn.paths.get(idx) else {
                return;
            };
            let Some(front) = path.buffer.front_size() else {
                return;
            };
            let dst = path.dst;
            match path.home {
                None => {
                    if path.inflight >= DELIVERY_CREDIT {
                        return; // wait for InputDone
                    }
                    let Some(delegate) = self
                        .local_translators
                        .get(&dst.translator)
                        .map(|t| t.delegate)
                    else {
                        // Destination vanished; drop the backlog.
                        while let Ok(Some(_)) = self.poll_path(cid, idx, now) {}
                        return;
                    };
                    let mut msg = match self.poll_path(cid, idx, now) {
                        Ok(Some(msg)) => msg,
                        Ok(None) => return,
                        Err(wait) => return self.arm_drain_timer(ctx, cid, idx, wait),
                    };
                    if let Some(path) = self
                        .connections
                        .get_mut(&cid)
                        .and_then(|c| c.paths.get_mut(idx))
                    {
                        path.inflight += 1;
                    }
                    self.finish_queue_span(ctx, cid, &mut msg);
                    self.stats.borrow_mut().local_deliveries += 1;
                    self.observe_delivery(ctx, cid, &dst, &msg);
                    ctx.send_local(
                        delegate,
                        RuntimeEvent::Input {
                            translator: dst.translator,
                            port: dst.port,
                            msg,
                            connection: cid,
                        },
                    );
                }
                Some(home) => {
                    // Ensure a link exists.
                    let stream = match self.peers.get(&home) {
                        Some(link) if link.up => link.stream,
                        Some(_) => return, // connecting; flushed on Connected
                        None => {
                            let Ok(stream) = ctx.connect(home) else {
                                return;
                            };
                            self.peers.insert(home, PeerLink { stream, up: false });
                            self.peer_by_stream.insert(stream, home);
                            return;
                        }
                    };
                    // Leave room for framing overhead.
                    if ctx.stream_sendable(stream) < front + 512 {
                        return; // resumed by Writable
                    }
                    let mut msg = match self.poll_path(cid, idx, now) {
                        Ok(Some(msg)) => msg,
                        Ok(None) => return,
                        Err(wait) => return self.arm_drain_timer(ctx, cid, idx, wait),
                    };
                    self.finish_queue_span(ctx, cid, &mut msg);
                    // The transport.send span stays open across the wire;
                    // the receiving runtime closes it, so its duration is
                    // the full serialize→transmit→decode leg of the hop.
                    let sent = ctx.span_begin(cid.corr(), "transport.send", dst.detail(DST_DETAIL));
                    msg.trace.transport_span = Some(sent);
                    self.stats.borrow_mut().remote_sends += 1;
                    let wire = WireMessage::PathMessage {
                        connection: cid,
                        dst,
                        msg,
                    }
                    .encode_framed();
                    if ctx.stream_send(stream, wire).is_err() {
                        // Stream filled up or died between checks; the
                        // message is lost (counted, not silently) and its
                        // transport span closes at the failure.
                        ctx.span_end(sent);
                        ctx.bump("umiddle.remote_send_failed", 1);
                        return;
                    }
                }
            }
        }
    }

    /// Polls one message off a path buffer, keeping the runtime-wide
    /// buffered and dropped totals in step with it.
    fn poll_path(
        &mut self,
        cid: ConnectionId,
        idx: usize,
        now: simnet::SimTime,
    ) -> Result<Option<UMessage>, SimDuration> {
        let Some(path) = self
            .connections
            .get_mut(&cid)
            .and_then(|c| c.paths.get_mut(idx))
        else {
            return Ok(None);
        };
        let occ_before = path.buffer.occupancy_bytes();
        let drop_before = path.buffer.stats().dropped();
        let polled = path.buffer.poll(now);
        self.buffered_total = self.buffered_total - occ_before + path.buffer.occupancy_bytes();
        self.dropped_total = self.dropped_total - drop_before + path.buffer.stats().dropped();
        polled
    }

    /// Schedules a drain retry for a rate-limited path, unless one is
    /// already pending.
    fn arm_drain_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        cid: ConnectionId,
        idx: usize,
        wait: SimDuration,
    ) {
        let Some(path) = self
            .connections
            .get_mut(&cid)
            .and_then(|c| c.paths.get_mut(idx))
        else {
            return;
        };
        if !path.timer_pending {
            path.timer_pending = true;
            ctx.span(
                cid.corr(),
                "qos.drain-wait",
                SpanDetail::new(&["", ""], [DetailArg::Dur(wait)]),
            );
            ctx.set_timer(wait, TIMER_DRAIN_BASE + path.uid);
        }
    }

    fn handle_input_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        connection: ConnectionId,
        translator: TranslatorId,
    ) {
        let Some(conn) = self.connections.get_mut(&connection) else {
            return;
        };
        let Some(idx) = conn
            .paths
            .iter()
            .position(|p| p.home.is_none() && p.dst.translator == translator && p.inflight > 0)
        else {
            return;
        };
        conn.paths[idx].inflight -= 1;
        self.drain_path(ctx, connection, idx);
        self.update_buffer_watermark(ctx);
    }

    fn handle_drain_timer(&mut self, ctx: &mut Ctx<'_>, uid: u64) {
        let Some(&cid) = self.path_by_uid.get(&uid) else {
            return; // path or connection gone before the retry fired
        };
        let Some(conn) = self.connections.get_mut(&cid) else {
            return;
        };
        let Some(idx) = conn.paths.iter().position(|p| p.uid == uid) else {
            return;
        };
        conn.paths[idx].timer_pending = false;
        ctx.bump(self.metrics.drain_retries, 1);
        ctx.span(
            cid.corr(),
            "qos.drain-retry",
            SpanDetail::new(&["path=", ""], [DetailArg::U64(idx as u64)]),
        );
        self.drain_path(ctx, cid, idx);
    }

    /// Runs the receive-side bookkeeping for one path message off the
    /// wire — closing its `transport.send` span, validating the
    /// destination, recording the delivery — and hands it to the
    /// destination's delegate as one [`RuntimeEvent::Input`]. A message
    /// for an unknown destination is dropped (counted, not silent).
    fn receive_path_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        connection: ConnectionId,
        dst: PortRef,
        mut msg: UMessage,
    ) {
        self.stats.borrow_mut().remote_receives += 1;
        if let Some(id) = msg.trace.transport_span.take() {
            if let Some(d) = ctx.span_end(id) {
                ctx.observe_corr(self.metrics.transport_latency, d, connection.corr());
            }
        }
        ctx.span(
            connection.corr(),
            "transport.receive",
            dst.detail(DST_DETAIL),
        );
        let Some(local) = self.local_translators.get(&dst.translator) else {
            ctx.bump("umiddle.path_unknown_dst", 1);
            return;
        };
        if local.profile.shape().port(&dst.port).is_none() {
            ctx.bump("umiddle.path_unknown_port", 1);
            return;
        }
        let delegate = local.delegate;
        self.observe_delivery(ctx, connection, &dst, &msg);
        ctx.send_local(
            delegate,
            RuntimeEvent::Input {
                translator: dst.translator,
                port: dst.port,
                msg,
                connection,
            },
        );
    }

    /// Closes the `queue.wait` span begun when this message copy entered
    /// its path buffer, taking the id off the message, and records
    /// the wait in the runtime's `queue_wait` histogram with the
    /// connection's correlation id as the exemplar.
    fn finish_queue_span(&self, ctx: &mut Ctx<'_>, cid: ConnectionId, msg: &mut UMessage) {
        if let Some(id) = msg.trace.queue_span.take() {
            if let Some(d) = ctx.span_end(id) {
                ctx.observe_corr(self.metrics.queue_wait, d, cid.corr());
            }
        }
    }

    /// Records the delivery span and the end-to-end path latency (from
    /// the emission stamp added by the source runtime).
    fn observe_delivery(
        &self,
        ctx: &mut Ctx<'_>,
        cid: ConnectionId,
        dst: &PortRef,
        msg: &UMessage,
    ) {
        ctx.span(cid.corr(), "deliver.local", dst.detail(DST_DETAIL));
        if let Some(sent) = msg.trace.sent_at {
            ctx.observe_corr(
                metric_id!("umiddle.path_latency"),
                ctx.now() - sent,
                cid.corr(),
            );
        }
    }

    fn on_stream_wire(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, data: simnet::Payload) {
        let Some(decoder) = self.incoming.get_mut(&stream) else {
            return;
        };
        decoder.push_payload(data);
        // One decoder pass surfaces every frame the payload completed,
        // so a payload carrying several frames costs one poll here, not
        // one per frame.
        let mut frames = std::mem::take(&mut self.decode_scratch);
        debug_assert!(frames.is_empty());
        decoder.drain_frames(&mut frames);
        let decoded = frames.iter().filter(|f| f.is_ok()).count() as u64;
        if decoded > 0 {
            ctx.bump(self.metrics.frames_decoded, decoded);
        }
        for frame in frames.drain(..) {
            match frame {
                Ok(WireMessage::PathMessage {
                    connection,
                    dst,
                    msg,
                }) => self.receive_path_message(ctx, connection, dst, msg),
                Ok(WireMessage::ConnectRequest {
                    token,
                    reply_to,
                    src,
                    target,
                    qos,
                }) => self.handle_connect_request(ctx, token, reply_to, src, target, qos),
                Ok(WireMessage::DisconnectRequest { connection }) => {
                    self.remove_connection(ctx, connection)
                }
                Ok(_) => ctx.bump("umiddle.unexpected_stream_msg", 1),
                Err(_) => ctx.bump("umiddle.wire_decode_errors", 1),
            }
        }
        self.decode_scratch = frames;
    }

    fn drain_paths_via(&mut self, ctx: &mut Ctx<'_>, home: Addr) {
        let mut conns = std::mem::take(&mut self.scratch);
        conns.clear();
        if let Some(v) = self.home_index.get(&home) {
            conns.extend_from_slice(v);
        }
        for &cid in &conns {
            let n_paths = match self.connections.get(&cid) {
                Some(conn) => conn.paths.len(),
                None => continue,
            };
            for idx in 0..n_paths {
                let via = self
                    .connections
                    .get(&cid)
                    .and_then(|c| c.paths.get(idx))
                    .is_some_and(|p| p.home == Some(home));
                if via {
                    self.drain_path(ctx, cid, idx);
                }
            }
        }
        self.scratch = conns;
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        // The periodic payload is just our watermark.
        let digest = self.own_digest(ctx);
        self.gossip_multicast(ctx, &digest);
        // Origin-level liveness: an origin that stopped gossiping (crash,
        // partition) takes its whole slice of the directory with it.
        let mut dead = std::mem::take(&mut self.expire_scratch);
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        let evicted =
            self.directory
                .evict_stale_origins(ctx.now(), ORIGIN_TTL, &mut events, &mut dead);
        events.clear(); // handle_disappearance re-derives the notifications
        self.event_scratch = events;
        for &id in &dead {
            ctx.bump(metric_id!("umiddle.directory_expiries"), 1);
            ctx.bump(self.metrics.advertisements_expired, 1);
            self.handle_disappearance(ctx, id);
        }
        self.expire_scratch = dead;
        for home in evicted {
            self.fail_pending_connects(ctx, home);
        }
        ctx.set_timer(ADVERTISE_INTERVAL, TIMER_TICK);
    }
}

impl Process for UmiddleRuntime {
    fn name(&self) -> &str {
        "umiddle-runtime"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(self.cfg.directory_port)
            .expect("directory port available");
        ctx.listen(self.cfg.transport_port)
            .expect("transport port available");
        let _ = ctx.join_group(self.cfg.multicast_group);
        let reply_to = self.directory_addr(ctx);
        self.gossip_multicast(ctx, &WireMessage::Probe { reply_to });
        ctx.set_timer(ADVERTISE_INTERVAL, TIMER_TICK);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        self.on_wire_datagram(ctx, dgram);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TIMER_TICK {
            self.tick(ctx);
        } else {
            self.handle_drain_timer(ctx, token - TIMER_DRAIN_BASE);
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        match event {
            StreamEvent::Accepted { .. } => {
                self.incoming.insert(stream, FrameDecoder::new());
            }
            StreamEvent::Data(data) => {
                if self.incoming.contains_key(&stream) {
                    self.on_stream_wire(ctx, stream, data);
                }
                // Outgoing links carry no return traffic today.
            }
            StreamEvent::Connected => {
                if let Some(home) = self.peer_by_stream.get(&stream).copied() {
                    if let Some(link) = self.peers.get_mut(&home) {
                        link.up = true;
                    }
                    self.drain_paths_via(ctx, home);
                }
            }
            StreamEvent::Writable => {
                if let Some(home) = self.peer_by_stream.get(&stream).copied() {
                    self.drain_paths_via(ctx, home);
                }
            }
            StreamEvent::Closed | StreamEvent::ConnectFailed => {
                if let Some(home) = self.peer_by_stream.remove(&stream) {
                    self.peers.remove(&home);
                }
                self.incoming.remove(&stream);
            }
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: LocalMessage) {
        let Ok(request) = msg.downcast::<RuntimeRequest>() else {
            ctx.bump("umiddle.unknown_local_msg", 1);
            return;
        };
        match *request {
            RuntimeRequest::Register {
                token,
                profile,
                delegate,
            } => self.handle_register(ctx, from, token, profile, delegate),
            RuntimeRequest::Unregister { translator } => self.handle_unregister(ctx, translator),
            RuntimeRequest::Lookup { token, query } => {
                let profiles: Vec<TranslatorProfile> = self
                    .directory
                    .table()
                    .lookup(&query)
                    .into_iter()
                    .cloned()
                    .collect();
                ctx.send_local(from, RuntimeEvent::LookupResult { token, profiles });
            }
            RuntimeRequest::AddListener { query } => {
                // Report existing matches immediately.
                let matches: Vec<TranslatorProfile> = self
                    .directory
                    .table()
                    .lookup(&query)
                    .into_iter()
                    .cloned()
                    .collect();
                for profile in matches {
                    ctx.send_local(
                        from,
                        RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)),
                    );
                }
                self.listeners.push((from, query));
            }
            RuntimeRequest::RemoveListener => {
                self.listeners.retain(|(p, _)| *p != from);
            }
            RuntimeRequest::Connect {
                token,
                src,
                target,
                qos,
            } => self.handle_connect(ctx, from, token, src, target, qos),
            RuntimeRequest::Disconnect { connection } => self.remove_connection(ctx, connection),
            RuntimeRequest::Output {
                translator,
                port,
                msg,
            } => self.handle_output(ctx, from, translator, port, msg),
            RuntimeRequest::InputDone {
                connection,
                translator,
            } => self.handle_input_done(ctx, connection, translator),
            RuntimeRequest::MetricsSnapshot { token } => {
                let snapshot = ctx.metrics().scoped(&self.scope).snapshot();
                ctx.send_local(from, RuntimeEvent::Metrics { token, snapshot });
            }
            RuntimeRequest::TelemetryWindow { token } => {
                let window = ctx.telemetry_window(Some(&self.scope));
                ctx.send_local(from, RuntimeEvent::Telemetry { token, window });
            }
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        // Orderly shutdown: tell peers our translators are gone (sorted
        // so the wire order is deterministic).
        let mut ids: Vec<TranslatorId> = self.local_translators.keys().copied().collect();
        ids.sort_unstable();
        // One batched delta retracts everything.
        let mut first = 0;
        let mut ops = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(v) = self.directory.record_local_remove(id) {
                if ops.is_empty() {
                    first = v;
                }
                ops.push(DeltaOp::Remove(id));
            }
        }
        if !ops.is_empty() {
            let home = self.transport_addr(ctx);
            self.gossip_multicast(
                ctx,
                &WireMessage::Delta {
                    origin: self.cfg.id,
                    home,
                    first,
                    ops,
                },
            );
        }
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RuntimeClient;
    use crate::wire::retired_frames;
    use simnet::{NodeId, SegmentConfig, SimTime, World};

    /// Hosts a runtime the test can still inspect while the world runs.
    /// A `cold` host empties the thread's frame slot before each
    /// datagram, so its runtime decodes every frame itself.
    struct Shared(Rc<RefCell<UmiddleRuntime>>, bool);

    impl Process for Shared {
        fn name(&self) -> &str {
            "umiddle-runtime"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.borrow_mut().on_start(ctx);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
            if self.1 {
                intern::clear_frame();
            }
            self.0.borrow_mut().on_datagram(ctx, dgram);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.borrow_mut().on_timer(ctx, token);
        }
        fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
            self.0.borrow_mut().on_stream(ctx, stream, event);
        }
        fn on_local(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: LocalMessage) {
            self.0.borrow_mut().on_local(ctx, from, msg);
        }
    }

    /// Registers `profile` with its runtime at start, then at 3 s sends
    /// `frames` as raw datagrams to `target`.
    struct LegacyPeer {
        runtime: ProcId,
        profile: TranslatorProfile,
        target: Addr,
        frames: Vec<Vec<u8>>,
    }

    impl Process for LegacyPeer {
        fn name(&self) -> &str {
            "legacy-peer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(5_000).unwrap();
            let me = ctx.me();
            RuntimeClient::new(self.runtime).register(ctx, self.profile.clone(), me);
            ctx.set_timer(SimDuration::from_secs(3), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for frame in self.frames.drain(..) {
                ctx.send_to(5_000, self.target, frame).unwrap();
            }
        }
    }

    #[test]
    fn retired_protocol_datagrams_leave_the_directory_alone() {
        let mut world = World::new(3);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let nodes: Vec<NodeId> = (0..2)
            .map(|i| {
                let node = world.add_node(format!("host{i}"));
                world.attach(node, hub).unwrap();
                node
            })
            .collect();
        let observer = Rc::new(RefCell::new(UmiddleRuntime::new(RuntimeConfig::new(
            RuntimeId(0),
        ))));
        world.add_process(nodes[0], Box::new(Shared(Rc::clone(&observer), false)));
        let peer_rt = world.add_process(
            nodes[1],
            Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
        );
        // The peer's first registration gets id rt1/1, so the retired
        // bye names a live replicated entry.
        let profile =
            TranslatorProfile::builder(TranslatorId::new(RuntimeId(1), 1), "sensor").build();
        let home = Addr::new(nodes[1], RuntimeConfig::new(RuntimeId(1)).transport_port);
        let directory = Addr::new(nodes[0], RuntimeConfig::new(RuntimeId(0)).directory_port);
        world.add_process(
            nodes[1],
            Box::new(LegacyPeer {
                runtime: peer_rt,
                profile: profile.clone(),
                target: directory,
                frames: retired_frames(&profile.with_attr("room", "attic"), home).to_vec(),
            }),
        );

        world.run_until(SimTime::from_millis(2_500));
        let before = observer.borrow().directory.fingerprint();
        assert_eq!(observer.borrow().directory.table().len(), 1);
        assert_eq!(world.trace().counter("umiddle.wire_decode_errors"), 0);

        world.run_until(SimTime::from_millis(3_500));
        assert_eq!(world.trace().counter("umiddle.wire_decode_errors"), 2);
        assert_eq!(observer.borrow().directory.fingerprint(), before);
        assert_eq!(observer.borrow().directory.table().len(), 1);
    }

    /// Services each [`Churner`] keeps registered.
    const CHURN_SERVICES: u32 = 3;

    /// Registers [`CHURN_SERVICES`] services with its runtime at start;
    /// at 2 s unregisters the first and registers one more.
    struct Churner {
        runtime: ProcId,
        id: RuntimeId,
    }

    impl Churner {
        fn register(&self, ctx: &mut Ctx<'_>, local: u32) {
            let profile = TranslatorProfile::builder(
                TranslatorId::new(self.id, local),
                format!("svc-{}-{local}", self.id.0),
            )
            .build();
            let me = ctx.me();
            RuntimeClient::new(self.runtime).register(ctx, profile, me);
        }
    }

    impl Process for Churner {
        fn name(&self) -> &str {
            "churner"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for local in 1..=CHURN_SERVICES {
                self.register(ctx, local);
            }
            ctx.set_timer(SimDuration::from_secs(2), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            // Registrations take ids 1, 2, … in order.
            RuntimeClient::new(self.runtime).unregister(ctx, TranslatorId::new(self.id, 1));
            self.register(ctx, CHURN_SERVICES + 1);
        }
    }

    /// At 3 s multicasts `frames` to the federation's directory group.
    struct Multicaster {
        frames: Vec<simnet::Payload>,
    }

    impl Process for Multicaster {
        fn name(&self) -> &str {
            "multicaster"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.bind(5_000).unwrap();
            ctx.set_timer(SimDuration::from_secs(3), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let group = RuntimeConfig::new(RuntimeId(0)).multicast_group;
            for frame in &self.frames {
                ctx.multicast(5_000, group, frame.clone()).unwrap();
            }
        }
    }

    /// A hub of `n` runtimes, each beside a [`Churner`], plus a node
    /// that multicasts `frames`.
    fn churn_world(
        n: u32,
        cold: bool,
        frames: Vec<simnet::Payload>,
    ) -> (World, Vec<Rc<RefCell<UmiddleRuntime>>>) {
        let mut world = World::new(5);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let runtimes = (0..n)
            .map(|i| {
                let node = world.add_node(format!("host{i}"));
                world.attach(node, hub).unwrap();
                let id = RuntimeId(i);
                let rt = Rc::new(RefCell::new(UmiddleRuntime::new(RuntimeConfig::new(id))));
                let runtime = world.add_process(node, Box::new(Shared(Rc::clone(&rt), cold)));
                world.add_process(node, Box::new(Churner { runtime, id }));
                rt
            })
            .collect();
        let node = world.add_node("multicaster");
        world.attach(node, hub).unwrap();
        world.add_process(node, Box::new(Multicaster { frames }));
        (world, runtimes)
    }

    #[test]
    fn replicas_sharing_decoded_multicasts_match_cold_decodes() {
        // Each runtime's fingerprint and the federation's apply and
        // repair counts, at 4.5 s (before the first digest at 5 s could
        // repair a replica that mishandled a delta) and at 20 s (past
        // the origin TTL, which only digests refresh after 2 s).
        let run = |cold: bool| {
            let (mut world, runtimes) = churn_world(4, cold, Vec::new());
            [4_500, 20_000].map(|ms| {
                world.run_until(SimTime::from_millis(ms));
                let fingerprints: Vec<u64> = runtimes
                    .iter()
                    .map(|rt| {
                        let rt = rt.borrow();
                        assert_eq!(rt.directory.table().len(), 4 * CHURN_SERVICES as usize);
                        rt.directory.fingerprint()
                    })
                    .collect();
                assert!(fingerprints.iter().all(|f| *f == fingerprints[0]));
                let counter = |name| world.trace().counter(name);
                (
                    fingerprints,
                    counter("directory.deltas_applied"),
                    counter("directory.antientropy_repairs"),
                )
            })
        };
        let shared = run(false);
        assert_eq!(shared, run(true));
        assert!(shared[0].1 > 0);
    }

    #[test]
    fn malformed_multicast_counts_a_decode_error_at_every_receiver() {
        let delta = WireMessage::Delta {
            origin: RuntimeId(9),
            home: Addr::new(NodeId::from_index(9), 47_001),
            first: 1,
            ops: vec![DeltaOp::Remove(TranslatorId::new(RuntimeId(9), 1))],
        }
        .encode_payload();
        let truncated = delta.slice(0..delta.len() - 1);
        let unknown_tag = simnet::Payload::from(vec![0xEE]);
        let frames = vec![truncated.clone(), unknown_tag.clone()];
        let (mut world, _runtimes) = churn_world(4, false, frames);
        world.run_until(SimTime::from_millis(3_500));
        // Each of the 4 receivers decodes each bad frame itself.
        assert_eq!(world.trace().counter("umiddle.wire_decode_errors"), 8);
        // A failed decode is never stored for the next receiver.
        assert!(intern::shared_frame(&truncated).is_none());
        assert!(intern::shared_frame(&unknown_tag).is_none());
    }
}
