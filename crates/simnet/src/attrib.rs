//! Continuous latency attribution: where did the virtual time go?
//!
//! The [`AttributionPlane`] is a profiler that rides the telemetry
//! sampler (so it ticks on the timer wheel, not on a separate clock):
//! at every sample it folds the spans the runtime and the bridges
//! already emit into per-component time totals, decomposed into
//!
//! * **self time** — a span's own duration minus the durations of its
//!   child spans (the component actually doing work),
//! * **queue wait** — time messages spent waiting rather than being
//!   computed on: path buffers (`queue.wait`), the wire under
//!   contention (`transport.send`, held open from serialize to decode),
//!   and blocked QoS drains (`qos.drain-wait`).
//!
//! **Components** are coarse attribution scopes derived from span
//! metadata: `bridge:{platform}` for `bridge.*` stages and
//! `process:{source}` for everything else.
//!
//! Each component also keeps an **exemplar**: the trace correlation id
//! of the longest span folded into it, so an attribution row links
//! directly to a journey in the span journal (and, when a trigger
//! fired, inside the incident bundle).
//!
//! The fold is incremental — a span-id cursor plus a pending-open set —
//! so each sample touches only spans begun or closed since the last
//! one, and it is a pure function of the deterministic span journal:
//! two identical runs produce byte-identical [`AttributionReport`]
//! JSON. Spans evicted by the flight-recorder ring while still open are
//! counted in `spans_lost` instead of silently vanishing.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::hash::IntMap;
use crate::journal::SpanFacts;
use crate::json::{Json, JsonError, Layout};
use crate::time::SimTime;
use crate::trace::Trace;

/// Accumulated virtual-time decomposition for one attribution
/// component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentTimes {
    /// Self time: span durations minus child-span durations, ns.
    pub self_ns: u64,
    /// Queue wait (`queue.wait`, `transport.send` and `qos.drain-wait`
    /// spans), ns.
    pub queue_ns: u64,
    /// Spans folded into this component.
    pub spans: u64,
    /// Largest single span contribution folded so far, ns.
    pub max_span_ns: u64,
    /// Correlation id of the span holding `max_span_ns` (zero when that
    /// span was uncorrelated).
    pub exemplar_corr: u64,
}

impl ComponentTimes {
    /// Total attributed time across both categories.
    pub fn total_ns(&self) -> u128 {
        u128::from(self.self_ns) + u128::from(self.queue_ns)
    }

    /// The dominant time category (`"self"` or `"queue"`); a tie
    /// breaks toward self.
    pub fn dominant(&self) -> &'static str {
        if self.self_ns >= self.queue_ns {
            "self"
        } else {
            "queue"
        }
    }
}

/// One attribution snapshot: per-component time decomposition as of a
/// fold instant. Renders to deterministic JSON ([`Self::to_json`]) and
/// reads back ([`Self::from_json`]) so CI can diff a checked-in
/// baseline against the current run (see
/// [`crate::export::diff_attribution`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionReport {
    /// Virtual time the report was built at, ns.
    pub at_ns: u64,
    /// Fold passes taken (one per telemetry sample plus catch-ups).
    pub samples: u64,
    /// Closed spans folded into components so far.
    pub spans_folded: u64,
    /// Spans evicted from the journal while still open — their time
    /// could not be attributed.
    pub spans_lost: u64,
    /// Per-component decomposition, ordered by component key.
    pub components: BTreeMap<String, ComponentTimes>,
}

impl AttributionReport {
    /// The component with the largest attributed total, with its times.
    /// Ties break toward the lexicographically first key.
    pub fn top_component(&self) -> Option<(&str, &ComponentTimes)> {
        self.components
            .iter()
            .max_by(|(ak, av), (bk, bv)| av.total_ns().cmp(&bv.total_ns()).then(bk.cmp(ak)))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Deterministic JSON value; byte-identical across identical runs.
    pub fn to_json(&self) -> Json {
        let components = self.components.iter().map(|(name, c)| {
            let c = Json::inline()
                .with("self_ns", c.self_ns)
                .with("queue_ns", c.queue_ns)
                .with("spans", c.spans)
                .with("max_span_ns", c.max_span_ns)
                .with("exemplar_corr", c.exemplar_corr);
            (name, c)
        });
        Json::block()
            .with("at_ns", self.at_ns)
            .with("samples", self.samples)
            .with("spans_folded", self.spans_folded)
            .with("spans_lost", self.spans_lost)
            .with("components", Json::object(Layout::Block, components))
    }

    /// Reads back exactly the shape [`Self::to_json`] writes (the perf
    /// doctor reads checked-in baselines with this): every key present,
    /// no other key, every number an unsigned integer. Anything else is
    /// an error, never a partial report.
    pub fn from_json(text: &str) -> Result<AttributionReport, JsonError> {
        let doc = Json::parse(text)?;
        let [at_ns, samples, spans_folded, spans_lost, components] = doc.fields([
            "at_ns",
            "samples",
            "spans_folded",
            "spans_lost",
            "components",
        ])?;
        let entries = components
            .as_object()
            .ok_or_else(|| JsonError("components: expected an object".into()))?;
        let mut report = AttributionReport {
            at_ns: at_ns.u64_of("at_ns")?,
            samples: samples.u64_of("samples")?,
            spans_folded: spans_folded.u64_of("spans_folded")?,
            spans_lost: spans_lost.u64_of("spans_lost")?,
            components: BTreeMap::new(),
        };
        for (name, c) in entries {
            let [self_ns, queue_ns, spans, max_span_ns, exemplar_corr] = c
                .fields([
                    "self_ns",
                    "queue_ns",
                    "spans",
                    "max_span_ns",
                    "exemplar_corr",
                ])
                .map_err(|e| JsonError(format!("component {name:?}: {e}")))?;
            let times = ComponentTimes {
                self_ns: self_ns.u64_of(name)?,
                queue_ns: queue_ns.u64_of(name)?,
                spans: spans.u64_of(name)?,
                max_span_ns: max_span_ns.u64_of(name)?,
                exemplar_corr: exemplar_corr.u64_of(name)?,
            };
            if report.components.insert(name.clone(), times).is_some() {
                return Err(JsonError(format!("component {name:?} repeated")));
            }
        }
        Ok(report)
    }
}

/// The continuous profiler state: an incremental fold over the span
/// journal plus the folded per-component aggregates. Owned by the
/// world, advanced at every telemetry sample. A plane folds one trace:
/// it caches what each of that trace's stages counts as.
#[derive(Debug, Default)]
pub struct AttributionPlane {
    /// Highest span id already examined; spans at or below it are
    /// folded, pending, or lost.
    cursor: u64,
    /// Span ids seen but still open at the last fold, ascending.
    pending: Vec<u64>,
    /// Child-span durations accumulated for pending parents, keyed by
    /// parent span id.
    child_ns: IntMap<u64, u64>,
    samples: u64,
    spans_folded: u64,
    spans_lost: u64,
    /// `process:{source}` accounts, indexed by span source and named
    /// the first time the source is folded.
    process: Vec<Option<(Arc<str>, ComponentTimes)>>,
    /// `bridge:{platform}` accounts, in first-seen order.
    bridge: Vec<(&'static str, ComponentTimes)>,
    /// What each stage of the trace's string table counts as, resolved
    /// the first time a span of that stage is folded.
    stages: Vec<Option<StageClass>>,
    /// Buffers reused by every fold.
    scratch: FoldScratch,
}

/// The per-fold working sets, kept between folds for their capacity.
#[derive(Debug, Default)]
struct FoldScratch {
    /// Spans ready to fold, ascending by id.
    ready: Vec<SpanFacts>,
    /// The previously pending ids that are still retained, ascending.
    live_pending: Vec<u64>,
    /// The pending ids that closed since the last fold, ascending.
    closed: Vec<u64>,
    /// Child time of the spans first seen in this fold, by id offset
    /// from the first of them.
    fresh_child_ns: Vec<u64>,
}

/// What one stage's spans count as.
#[derive(Debug, Clone, Copy)]
enum StageClass {
    /// Self time of the span's process.
    SelfTime,
    /// Queue wait of the span's process.
    Queue,
    /// Self time of the `bridge` account at this index.
    Bridge(usize),
}

/// Classifies a stage, registering its bridge platform if it names one.
///
/// Wait stages are everything a message spends *not being computed on*:
/// `queue.wait` (sitting in a path buffer), `transport.send` (held open
/// from serialization on the sending runtime to decode on the receiving
/// one, so under contention its duration is dominated by medium
/// queueing), and `qos.drain-wait` (a blocked drain sleeping on its
/// retry timer). Everything else is self time — bridge stages on the
/// platform's `bridge:` component, the rest on the owning process.
fn classify(stage: &'static str, bridge: &mut Vec<(&'static str, ComponentTimes)>) -> StageClass {
    if stage == "queue.wait" || stage == "transport.send" || stage == "qos.drain-wait" {
        StageClass::Queue
    } else if let Some(rest) = stage.strip_prefix("bridge.") {
        let platform = rest.split('.').next().unwrap_or(rest);
        let at = bridge.iter().position(|(p, _)| *p == platform);
        StageClass::Bridge(at.unwrap_or_else(|| {
            bridge.push((platform, ComponentTimes::default()));
            bridge.len() - 1
        }))
    } else {
        StageClass::SelfTime
    }
}

impl AttributionPlane {
    /// Fresh plane; nothing folded yet.
    pub fn new() -> AttributionPlane {
        AttributionPlane::default()
    }

    /// Folds everything that changed in the span journal since the last
    /// fold: newly begun spans are examined once, spans still open stay
    /// pending, and spans the journal evicted while open are counted as
    /// lost.
    ///
    /// Only the spans after the cursor and the pending spans that closed
    /// are read, straight from the journal's slots: the journal logs
    /// the closes of the spans the fold saw open. The cursor relies on
    /// two [`Trace`] invariants: ids strictly increase, and eviction
    /// only ever removes the oldest spans.
    pub fn fold(&mut self, trace: &mut Trace) {
        self.samples = self.samples.saturating_add(1);
        let journal = trace.journal_mut();
        let FoldScratch {
            ready,
            live_pending,
            closed,
            fresh_child_ns,
        } = &mut self.scratch;
        ready.clear();
        live_pending.clear();
        closed.clear();

        // Phase A: find what is newly ready. Pending spans the ring
        // evicted are lost; the pending spans that closed since the last
        // fold come first (they precede every new id, so `ready` stays
        // in id order); then the cursor advances over the newly begun
        // spans.
        let lost = self.pending.partition_point(|&id| id < journal.first_id());
        for id in self.pending.drain(..lost) {
            self.spans_lost = self.spans_lost.saturating_add(1);
            self.child_ns.remove(&id);
        }
        live_pending.extend_from_slice(&self.pending);
        journal.take_closed(closed);
        closed.sort_unstable();
        closed.retain(|id| live_pending.binary_search(id).is_ok());
        ready.extend(closed.iter().filter_map(|&id| journal.facts(id)));
        // Both lists ascend and every closed id is pending: drop each.
        let mut next_closed = closed.iter().copied().peekable();
        self.pending
            .retain(|&id| next_closed.next_if_eq(&id).is_none());
        let fresh_from = self.pending.len();
        let mut fresh_base = None;
        for f in journal.facts_from(self.cursor.saturating_add(1)) {
            fresh_base.get_or_insert(f.id);
            self.cursor = f.id;
            if f.duration_ns.is_some() {
                ready.push(f);
            } else {
                self.pending.push(f.id);
            }
        }
        journal.watch_closes(self.cursor);
        let fresh_base = fresh_base.unwrap_or(u64::MAX);
        fresh_child_ns.clear();
        fresh_child_ns.resize((self.cursor + 1).saturating_sub(fresh_base) as usize, 0);

        // Phase B: accumulate child durations onto parents that have
        // not been folded yet — every span seen in this fold, and every
        // earlier pending span still retained — so a parent folded now
        // or later reports true self time. (A parent always has a
        // smaller id than its child; one folded earlier already counted
        // its full duration, and the child's time is intentionally not
        // subtracted twice.)
        for f in ready.iter() {
            let duration = f.duration_ns.unwrap_or(0);
            if f.parent >= fresh_base {
                let slot = &mut fresh_child_ns[(f.parent - fresh_base) as usize];
                *slot = slot.saturating_add(duration);
            } else if f.parent != 0 && live_pending.binary_search(&f.parent).is_ok() {
                let slot = self.child_ns.entry(f.parent).or_insert(0);
                *slot = slot.saturating_add(duration);
            }
        }

        // Phase C: attribute each ready span's own time, in id order so
        // the "longest span wins the exemplar" tie break is independent
        // of how a span became ready.
        for f in ready.iter() {
            let children = if f.id >= fresh_base {
                fresh_child_ns[(f.id - fresh_base) as usize]
            } else {
                self.child_ns.remove(&f.id).unwrap_or(0)
            };
            let own = f.duration_ns.unwrap_or(0).saturating_sub(children);
            let stage = f.stage as usize;
            if stage >= self.stages.len() {
                self.stages.resize(stage + 1, None);
            }
            let class = *self.stages[stage]
                .get_or_insert_with(|| classify(journal.str_at(f.stage), &mut self.bridge));
            let c = match class {
                StageClass::Bridge(at) => &mut self.bridge[at].1,
                StageClass::SelfTime | StageClass::Queue => {
                    let source = f.source.index();
                    if source >= self.process.len() {
                        self.process.resize_with(source + 1, || None);
                    }
                    &mut self.process[source]
                        .get_or_insert_with(|| {
                            (
                                Arc::clone(journal.source_name(f.source)),
                                ComponentTimes::default(),
                            )
                        })
                        .1
                }
            };
            if let StageClass::Queue = class {
                c.queue_ns = c.queue_ns.saturating_add(own);
            } else {
                c.self_ns = c.self_ns.saturating_add(own);
            }
            c.spans = c.spans.saturating_add(1);
            if own > c.max_span_ns {
                c.max_span_ns = own;
                c.exemplar_corr = f.corr;
            }
            self.spans_folded = self.spans_folded.saturating_add(1);
        }

        // Fresh spans still open keep the child time gathered so far.
        for &id in &self.pending[fresh_from..] {
            let children = fresh_child_ns[(id - fresh_base) as usize];
            if children > 0 {
                self.child_ns.insert(id, children);
            }
        }
    }

    /// Builds a snapshot of the folded aggregates as of `at`, every
    /// account under its component name (`process:{source}`,
    /// `bridge:{platform}`).
    pub fn report(&self, at: SimTime) -> AttributionReport {
        let process = self
            .process
            .iter()
            .flatten()
            .map(|(source, c)| (format!("process:{source}"), c.clone()));
        let bridge = self
            .bridge
            .iter()
            .map(|(platform, c)| (format!("bridge:{platform}"), c.clone()));
        AttributionReport {
            at_ns: at.as_nanos(),
            samples: self.samples,
            spans_folded: self.spans_folded,
            spans_lost: self.spans_lost,
            components: process.chain(bridge).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn fold_decomposes_self_and_queue() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        let outer = t.span_begin(7, ns(0), "umiddle-runtime", "deliver.local", "");
        let queue = t.span_begin(7, ns(10), "umiddle-runtime", "queue.wait", "");
        t.span_end(queue, ns(40));
        t.span_end(outer, ns(100));
        let hop = t.span_begin(7, ns(50), "mapper", "bridge.upnp.input", "");
        t.span_end(hop, ns(80));
        plane.fold(&mut t);
        let r = plane.report(SimTime::from_nanos(100));
        let rt = &r.components["process:umiddle-runtime"];
        assert_eq!(rt.self_ns, 70); // 100 minus the 30 ns child
        assert_eq!(rt.queue_ns, 30);
        assert_eq!(rt.exemplar_corr, 7);
        assert_eq!(r.components["bridge:upnp"].self_ns, 30);
        assert_eq!(r.spans_folded, 3);
        assert_eq!(r.spans_lost, 0);

        // Refolding an unchanged journal attributes nothing new.
        plane.fold(&mut t);
        let again = plane.report(SimTime::from_nanos(100));
        assert_eq!(again.components, r.components);
        assert_eq!(again.spans_folded, 3);
    }

    #[test]
    fn repeated_sources_and_platforms_land_on_their_named_components() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        // Three folds over the same sources and platforms: the first
        // sees each component new, the later ones find it again.
        for round in 0..3u64 {
            let base = round * 1_000;
            let q = t.span_begin(1, ns(base), "rt-a", "queue.wait", "");
            t.span_end(q, ns(base + 40));
            let x = t.span_begin(1, ns(base + 40), "rt-a", "transport.send", "");
            t.span_end(x, ns(base + 45));
            let p = t.span_begin(2, ns(base), "rt-b", "deliver.local", "");
            t.span_end(p, ns(base + 7));
            let hop = t.span_begin(3, ns(base), "mb-mapper", "bridge.mediabroker.output", "");
            t.span_end(hop, ns(base + 11));
            let hop = t.span_begin(4, ns(base), "rmi-mapper", "bridge.rmi.input", "");
            t.span_end(hop, ns(base + 13 + round));
            plane.fold(&mut t);
        }
        let r = plane.report(SimTime::ZERO);
        let names: Vec<&str> = r.components.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "bridge:mediabroker",
                "bridge:rmi",
                "process:rt-a",
                "process:rt-b",
            ]
        );
        let rt_a = &r.components["process:rt-a"];
        assert_eq!((rt_a.self_ns, rt_a.queue_ns, rt_a.spans), (0, 135, 6));
        let rt_b = &r.components["process:rt-b"];
        assert_eq!((rt_b.self_ns, rt_b.queue_ns, rt_b.spans), (21, 0, 3));
        let mb = &r.components["bridge:mediabroker"];
        assert_eq!((mb.self_ns, mb.spans, mb.exemplar_corr), (33, 3, 3));
        let rmi = &r.components["bridge:rmi"];
        assert_eq!(
            (rmi.self_ns, rmi.max_span_ns, rmi.exemplar_corr),
            (42, 15, 4)
        );
        assert_eq!(r.spans_folded, 15);
    }

    #[test]
    fn fold_is_incremental_and_handles_late_closes() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        // First fold: parent still open, child closed.
        let outer = t.span_begin(9, ns(0), "umiddle-runtime", "deliver.local", "");
        let queue = t.span_begin(9, ns(0), "umiddle-runtime", "queue.wait", "");
        t.span_end(queue, ns(25));
        plane.fold(&mut t);
        assert_eq!(plane.report(SimTime::ZERO).spans_folded, 1);

        // Second fold: the parent has closed; its self time excludes
        // the child folded a sample earlier.
        t.span_end(outer, ns(100));
        plane.fold(&mut t);
        let r = plane.report(SimTime::ZERO);
        let rt = &r.components["process:umiddle-runtime"];
        assert_eq!(rt.self_ns, 75);
        assert_eq!(rt.queue_ns, 25);
        assert_eq!(r.spans_folded, 2);
    }

    #[test]
    fn evicted_open_spans_count_as_lost() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::new(2);
        t.span_begin(3, ns(0), "p", "stage", "");
        plane.fold(&mut t);
        // The ring evicts span 1 before it ever closed.
        t.span(4, ns(5), "p", "stage", "");
        t.span(4, ns(9), "p", "stage", "");
        assert_eq!(t.ring_overwrites(), 1);
        plane.fold(&mut t);
        let r = plane.report(SimTime::ZERO);
        assert_eq!(r.spans_lost, 1);
        assert_eq!(r.spans_folded, 2);
    }

    #[test]
    fn report_json_round_trips() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        let queue = t.span_begin(7, ns(0), "umiddle-runtime", "queue.wait", "");
        t.span_end(queue, ns(40));
        let hop = t.span_begin(0, ns(0), "mapper", "bridge.bt.output", "");
        t.span_end(hop, ns(10));
        plane.fold(&mut t);
        let report = plane.report(SimTime::from_nanos(99));
        let parsed = AttributionReport::from_json(&report.to_json().document()).expect("parses");
        assert_eq!(parsed, report);
        assert!(AttributionReport::from_json("{}").is_err());
    }

    /// The fold the plane replaced, kept as an oracle: it materializes
    /// a record for every new span and re-reads every pending span at
    /// every fold, keying its accounts by rendered name.
    #[derive(Default)]
    struct ReferenceFold {
        cursor: u64,
        pending: std::collections::BTreeSet<u64>,
        child_ns: BTreeMap<u64, u64>,
        folded: u64,
        lost: u64,
        components: BTreeMap<String, ComponentTimes>,
    }

    impl ReferenceFold {
        fn fold(&mut self, trace: &Trace) {
            use crate::trace::{SpanId, SpanRecord};
            let mut ready: Vec<SpanRecord> = Vec::new();
            for id in self.pending.clone() {
                match trace.span_record(SpanId(id)) {
                    Some(s) if s.end.is_some() => {
                        ready.push(s);
                        self.pending.remove(&id);
                    }
                    Some(_) => {}
                    None => {
                        self.lost += 1;
                        self.child_ns.remove(&id);
                        self.pending.remove(&id);
                    }
                }
            }
            for s in trace.spans_after(SpanId(self.cursor)) {
                self.cursor = s.id.0;
                if s.end.is_some() {
                    ready.push(s);
                } else {
                    self.pending.insert(s.id.0);
                }
            }
            ready.sort_by_key(|s| s.id.0);
            let batch: std::collections::BTreeSet<u64> = ready.iter().map(|s| s.id.0).collect();
            for s in &ready {
                if let Some(parent) = s.parent {
                    if batch.contains(&parent.0) || self.pending.contains(&parent.0) {
                        *self.child_ns.entry(parent.0).or_insert(0) +=
                            s.duration().map_or(0, |d| d.as_nanos());
                    }
                }
            }
            for s in &ready {
                let own = s
                    .duration()
                    .map_or(0, |d| d.as_nanos())
                    .saturating_sub(self.child_ns.remove(&s.id.0).unwrap_or(0));
                let queue = matches!(s.stage, "queue.wait" | "transport.send" | "qos.drain-wait");
                let name = match s.stage.strip_prefix("bridge.") {
                    Some(rest) if !queue => format!("bridge:{}", rest.split('.').next().unwrap()),
                    _ => format!("process:{}", s.source),
                };
                let c = self.components.entry(name).or_default();
                if queue {
                    c.queue_ns += own;
                } else {
                    c.self_ns += own;
                }
                c.spans += 1;
                if own > c.max_span_ns {
                    c.max_span_ns = own;
                    c.exemplar_corr = s.corr;
                }
                self.folded += 1;
            }
        }
    }

    #[test]
    fn fold_matches_the_reference_fold_through_evictions_and_late_closes() {
        const SOURCES: [&str; 3] = ["rt0", "rt1", "mapper"];
        const STAGES: [&str; 6] = [
            "deliver.local",
            "queue.wait",
            "transport.send",
            "bridge.upnp.input",
            "bridge.rmi.output",
            "connect",
        ];
        crate::rng::check_cases("fold_matches_the_reference_fold", 64, |_, rng| {
            let mut t = Trace::new(rng.gen_range(2usize..=48));
            let mut plane = AttributionPlane::new();
            let mut reference = ReferenceFold::default();
            let mut open = Vec::new();
            let mut now = 0;
            for _ in 0..rng.gen_range(1usize..400) {
                now += rng.gen_range(0u64..1_000);
                let corr = rng.gen_range(1u64..4);
                let source = SOURCES[rng.gen_range(0usize..SOURCES.len())];
                let stage = STAGES[rng.gen_range(0usize..STAGES.len())];
                match rng.gen_range(0u32..10) {
                    0..=3 => open.push(t.span_begin(corr, ns(now), source, stage, "")),
                    4..=5 => {
                        t.span(corr, ns(now), source, stage, "");
                    }
                    6..=8 if !open.is_empty() => {
                        let id = open.swap_remove(rng.gen_range(0..open.len()));
                        t.span_end(id, ns(now));
                    }
                    _ => {
                        plane.fold(&mut t);
                        reference.fold(&t);
                        let r = plane.report(ns(now));
                        assert_eq!(r.components, reference.components);
                        assert_eq!(r.spans_folded, reference.folded);
                        assert_eq!(r.spans_lost, reference.lost);
                    }
                }
            }
        });
    }

    const BASELINE: &str = include_str!("../../../artifacts/E13_attrib_baseline.json");

    #[test]
    fn from_json_reads_the_checked_in_baseline() {
        let report = AttributionReport::from_json(BASELINE).expect("baseline parses");
        assert_eq!(report.components.len(), 3);
        assert_eq!(report.to_json().document(), BASELINE);
    }

    #[test]
    fn from_json_rejects_a_truncated_baseline() {
        // Cut right after the first component line: a line scraper
        // would return a report with fewer components.
        let first = BASELINE.find("{\"self_ns\"").expect("a component line");
        let cut = first + BASELINE[first..].find('\n').expect("line end") + 1;
        let err = AttributionReport::from_json(&BASELINE[..cut]).expect_err("truncated");
        assert!(err.to_string().contains("byte"), "a parse error: {err}");
    }

    #[test]
    fn from_json_rejects_a_renamed_top_level_key() {
        let renamed = BASELINE.replacen("\"spans_lost\"", "\"spans_dropped\"", 1);
        assert_ne!(renamed, BASELINE);
        let err = AttributionReport::from_json(&renamed).expect_err("renamed key");
        assert!(err.to_string().contains("spans_dropped"), "{err}");
    }

    #[test]
    fn dominant_and_top_component() {
        let mut c = ComponentTimes::default();
        assert_eq!(c.dominant(), "self");
        c.queue_ns = 10;
        assert_eq!(c.dominant(), "queue");
        c.self_ns = 10;
        assert_eq!(c.dominant(), "self");

        let mut report = AttributionReport::default();
        assert!(report.top_component().is_none());
        report.components.insert(
            "a".into(),
            ComponentTimes {
                self_ns: 5,
                ..ComponentTimes::default()
            },
        );
        report.components.insert(
            "b".into(),
            ComponentTimes {
                queue_ns: 9,
                ..ComponentTimes::default()
            },
        );
        assert_eq!(report.top_component().unwrap().0, "b");
    }
}
