//! The mapper core: the translator lifecycle every mapper shares.
//!
//! Each mapper holds one [`MapperCore`], keyed by whatever identifies a
//! native entity on its platform (a UPnP USN, a Bluetooth node and
//! profile, an index into a roster). The core owns the mapper's
//! [`RuntimeClient`], the one table of which translator serves which
//! entity, and carries a translator from USDL instantiation through
//! registration to departure; the mapper keeps only its discovery and
//! protocol code, and asks the core for an entity's translator
//! ([`MapperCore::translator`]).
//!
//! Lifecycle: [`MapperCore::instantiate`] pays the Figure-10
//! instantiation cost and registers the translator; when the runtime
//! answers, [`MapperCore::route`] files it under its entity's key,
//! records the `MapperStats::mappings` row and bumps
//! `mapper.{prefix}.mapped`; [`MapperCore::depart`] unregisters it when
//! the native entity goes away. An entity that departs while its
//! registration is still in flight leaves no orphan: the late
//! translator is unregistered the moment it registers.
//!
//! Routing: every message a mapper's `on_local` receives goes through
//! [`MapperCore::route`] first. It forwards `InputDone` echoes to the
//! runtime, completes registrations, resolves each delivered input to
//! the key of the entity its translator serves, and hands the mapper
//! back only what is left for it: a [`Routed`] registration or input,
//! or a message of the mapper's own.
//!
//! Observability: every hop records into the federation-wide
//! `umiddle.translation_latency` histogram and a per-platform
//! `bridge.{platform}.translation` histogram. Inbound hops emit a
//! `bridge.{platform}.input` span on the path's correlation id (see
//! [`umiddle_core::ConnectionId::corr`]); outbound hops emit an
//! uncorrelated `bridge.{platform}.output` span. Both are structured
//! spans: begun when the triggering event arrived and ended at the
//! mapper's *emit time*, so translation cost modeled with
//! `ctx.busy(cost)` before the call is inside the span's duration.
//! Every translated hop also bumps a per-platform
//! `bridge.{platform}.traffic` counter and refreshes the
//! `bridge.{platform}.last_traffic_ns` watermark gauge. The federation
//! doctor reads the watermark to flag silent bridges, and the traffic
//! counter feeds liveness SLOs; [`MapperCore::announce`] plants the
//! watermark at mapper start so a bridge that never translates anything
//! is still visible.
//!
//! The core builds these names once, at [`MapperCore::new`]: metrics as
//! [`MetricId`] handles and span stages as interned names, so a hop
//! formats no string.

use std::cell::RefCell;
use std::hash::Hash;
use std::rc::Rc;

use simnet::{
    metric_id, Ctx, DetailArg, IntMap, LocalMessage, MetricId, ProcId, SimDuration, SimTime,
    SpanDetail,
};
use umiddle_core::{
    handle_input_done_echo, ConnectionId, RuntimeClient, RuntimeEvent, Symbol, TranslatorId,
    UMessage,
};
use umiddle_usdl::UsdlDocument;

use crate::calib;

/// Per-mapper statistics shared with tests and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct MapperStats {
    /// `(device type, instance name, time from discovery to registration)`.
    pub mappings: Vec<(String, String, SimDuration)>,
    /// Actions invoked on native devices.
    pub actions: u64,
    /// Events translated to the common space.
    pub events: u64,
    /// Per-action latency: common-space input → native completion.
    pub action_latencies: LatencyTally,
    /// Per-signal translation latency: native event → common-space
    /// emission.
    pub translation_latencies: LatencyTally,
}

/// A running count and total of latencies: their mean and number,
/// in constant space however long the mapper runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyTally {
    count: u64,
    total_ns: u64,
}

impl LatencyTally {
    /// Records one latency.
    pub fn push(&mut self, latency: SimDuration) {
        self.count += 1;
        self.total_ns += latency.as_nanos();
    }

    /// Latencies recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if none was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean, truncated to whole nanoseconds; zero when empty.
    pub fn mean(&self) -> SimDuration {
        match self.count {
            0 => SimDuration::ZERO,
            n => SimDuration::from_nanos(self.total_ns / n),
        }
    }
}

/// The native entity a translator is instantiated for: the key the
/// mapper files it under, and the instance name and discovery time its
/// `MapperStats::mappings` row records.
#[derive(Debug)]
pub(crate) struct Entity<K> {
    pub(crate) key: K,
    pub(crate) name: String,
    pub(crate) seen_at: SimTime,
}

/// A registration in flight.
#[derive(Debug)]
struct Pending<K> {
    device_type: String,
    entity: Entity<K>,
}

/// One mapper's share of the translator lifecycle. See the module docs.
#[derive(Debug)]
pub(crate) struct MapperCore<K> {
    pub(crate) client: RuntimeClient,
    names: Names,
    /// Registration token → the entity it instantiates; `None` once the
    /// entity departed before its translator registered.
    pending: IntMap<u64, Option<Pending<K>>>,
    /// Registered translators, both ways: translator → entity key and
    /// entity key → translator.
    by_translator: IntMap<TranslatorId, K>,
    by_key: IntMap<K, TranslatorId>,
    pub(crate) stats: Rc<RefCell<MapperStats>>,
}

/// What [`MapperCore::route`] leaves to the mapper.
pub(crate) enum Routed<K> {
    /// The core handled the message (an `InputDone` echo, a translator
    /// registered for a departed entity, an input to a translator the
    /// core no longer holds, or a runtime event mappers ignore).
    Handled,
    /// A translator registered for the entity `K`.
    Registered(K, TranslatorId),
    /// An input delivered to a registered translator.
    Input(Input<K>),
    /// Not a runtime message: one of the mapper's own.
    Other(LocalMessage),
}

/// A delivered input, resolved to the entity its translator serves.
/// The mapper answers it with [`umiddle_core::ack_input_done`].
pub(crate) struct Input<K> {
    pub(crate) key: K,
    pub(crate) translator: TranslatorId,
    pub(crate) port: Symbol,
    pub(crate) msg: UMessage,
    pub(crate) connection: ConnectionId,
}

/// A mapper's metric handles and span stages, built once from its
/// platform label and metric prefix.
#[derive(Debug)]
struct Names {
    /// `bridge.{platform}.input`.
    input_stage: &'static str,
    /// `bridge.{platform}.output`.
    output_stage: &'static str,
    /// `bridge.{platform}.translation`.
    translation: MetricId,
    /// `bridge.{platform}.traffic`.
    traffic: MetricId,
    /// `bridge.{platform}.last_traffic_ns`.
    last_traffic: MetricId,
    /// `mapper.{prefix}.mapped`.
    mapped: MetricId,
}

impl Names {
    fn new(platform: &str, prefix: &str) -> Names {
        let stage = |kind: &str| Symbol::new(&format!("bridge.{platform}.{kind}")).as_static();
        let bridge = |name: &str| MetricId::new(&format!("bridge.{platform}.{name}"));
        Names {
            input_stage: stage("input"),
            output_stage: stage("output"),
            translation: bridge("translation"),
            traffic: bridge("traffic"),
            last_traffic: bridge("last_traffic_ns"),
            mapped: MetricId::new(&format!("mapper.{prefix}.mapped")),
        }
    }
}

impl<K: Clone + Eq + Hash> MapperCore<K> {
    /// A core talking to `runtime`, labelling its metrics `platform`
    /// (`bridge.*`) and `prefix` (`mapper.*`).
    pub(crate) fn new(runtime: ProcId, platform: &'static str, prefix: &'static str) -> Self {
        MapperCore {
            client: RuntimeClient::new(runtime),
            names: Names::new(platform, prefix),
            pending: IntMap::default(),
            by_translator: IntMap::default(),
            by_key: IntMap::default(),
            stats: Rc::new(RefCell::new(MapperStats::default())),
        }
    }

    /// The local runtime process.
    pub(crate) fn runtime(&self) -> ProcId {
        self.client.runtime()
    }

    /// The registered translator serving the entity `key`, if any.
    pub(crate) fn translator(&self, key: &K) -> Option<TranslatorId> {
        self.by_key.get(key).copied()
    }

    /// Instantiates a translator from `doc` for `entity`: pays the
    /// Figure-10 cost of the document's ports plus `extra_entities`
    /// hierarchy entities, and registers the profile, named `name`.
    pub(crate) fn instantiate(
        &mut self,
        ctx: &mut Ctx<'_>,
        doc: &UsdlDocument,
        extra_entities: usize,
        name: &str,
        entity: Entity<K>,
    ) {
        ctx.busy(calib::instantiation_cost(doc.ports().len(), extra_entities));
        let profile = doc.profile(Some(name));
        let me = ctx.me();
        let token = self.client.register(ctx, profile, me);
        let pending = Pending {
            device_type: doc.device_type().to_owned(),
            entity,
        };
        self.pending.insert(token, Some(pending));
    }

    /// Routes one message of the mapper's `on_local`. An `InputDone`
    /// echo is forwarded to the runtime; a registration is completed
    /// (see [`MapperCore::registered`]) and its key handed back; an
    /// input is resolved to the key of the entity its translator serves,
    /// or dropped when the core holds no such translator; other runtime
    /// events are dropped, and any other message is handed back.
    pub(crate) fn route(&mut self, ctx: &mut Ctx<'_>, msg: LocalMessage) -> Routed<K> {
        if handle_input_done_echo(ctx, &msg) {
            return Routed::Handled;
        }
        let event = match msg.downcast::<RuntimeEvent>() {
            Ok(event) => event,
            Err(other) => return Routed::Other(other),
        };
        match *event {
            RuntimeEvent::Registered { token, translator } => {
                match self.registered(ctx, token, translator) {
                    Some(key) => Routed::Registered(key, translator),
                    None => Routed::Handled,
                }
            }
            RuntimeEvent::Input {
                translator,
                port,
                msg,
                connection,
            } => match self.by_translator.get(&translator) {
                Some(key) => Routed::Input(Input {
                    key: key.clone(),
                    translator,
                    port,
                    msg,
                    connection,
                }),
                None => Routed::Handled,
            },
            _ => Routed::Handled,
        }
    }

    /// Completes the registration `token`: files `translator` under its
    /// entity's key, records the mapping row, bumps
    /// `mapper.{prefix}.mapped` and returns the key. A translator whose
    /// entity has departed is unregistered at once and `None` returned.
    fn registered(&mut self, ctx: &mut Ctx<'_>, token: u64, translator: TranslatorId) -> Option<K> {
        let Some(pending) = self.pending.remove(&token)? else {
            self.client.unregister(ctx, translator);
            return None;
        };
        let Entity { key, name, seen_at } = pending.entity;
        self.by_translator.insert(translator, key.clone());
        self.by_key.insert(key.clone(), translator);
        let elapsed = ctx.now().saturating_since(seen_at);
        self.stats
            .borrow_mut()
            .mappings
            .push((pending.device_type, name, elapsed));
        ctx.bump(self.names.mapped, 1);
        Some(key)
    }

    /// Forgets a departed entity: unregisters its translator, if it has
    /// one, and marks any registration still in flight for it, so that
    /// translator is unregistered the moment it registers.
    pub(crate) fn depart(&mut self, ctx: &mut Ctx<'_>, key: &K) {
        for slot in self.pending.values_mut() {
            if slot.as_ref().is_some_and(|p| p.entity.key == *key) {
                *slot = None;
            }
        }
        if let Some(t) = self.by_key.remove(key) {
            self.by_translator.remove(&t);
            self.client.unregister(ctx, t);
        }
    }

    /// Registers the bridge with the doctor at mapper start: plants its
    /// `bridge.{platform}.last_traffic_ns` watermark at the current
    /// time, so liveness is measured from bring-up rather than from an
    /// absent gauge.
    pub(crate) fn announce(&self, ctx: &mut Ctx<'_>) {
        self.touch(ctx);
    }

    /// Records one inbound bridge hop (uMiddle → native platform): a
    /// structured span on the path's correlation id plus the translation
    /// cost histograms. Call it after the `ctx.busy(cost)` that models
    /// the translation, so the span's end covers the modeled CPU work.
    pub(crate) fn record_hop(
        &self,
        ctx: &mut Ctx<'_>,
        connection: ConnectionId,
        port: Symbol,
        cost: SimDuration,
    ) {
        let span = ctx.span_begin(
            connection.corr(),
            self.names.input_stage,
            SpanDetail::new(&["port=", ""], [DetailArg::Str(port.as_static())]),
        );
        ctx.span_end(span);
        self.record_translation(ctx, cost, connection.corr());
    }

    /// Records one outbound bridge hop (native platform → uMiddle): a
    /// structured span plus the translation cost histograms. Egress
    /// translation happens before any connection is chosen, so the span
    /// is uncorrelated (corr 0); it still appears on the mapper's
    /// exporter thread with its full duration.
    pub(crate) fn record_egress(&self, ctx: &mut Ctx<'_>, cost: SimDuration) {
        let span = ctx.span_begin(0, self.names.output_stage, SpanDetail::EMPTY);
        ctx.span_end(span);
        self.record_translation(ctx, cost, 0);
    }

    /// Records a translation cost into the federation-wide and
    /// per-platform histograms, with `corr` as the exemplar (0 when the
    /// hop serves no known path), and refreshes the platform's liveness
    /// traffic counter and last-traffic watermark.
    fn record_translation(&self, ctx: &mut Ctx<'_>, cost: SimDuration, corr: u64) {
        ctx.observe_corr(metric_id!("umiddle.translation_latency"), cost, corr);
        ctx.observe_corr(self.names.translation, cost, corr);
        ctx.bump(self.names.traffic, 1);
        self.touch(ctx);
    }

    /// Refreshes the platform's last-traffic watermark to now.
    fn touch(&self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_nanos() as i64;
        ctx.gauge_set(self.names.last_traffic, now);
    }
}
