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
//!   and blocked QoS drains (`qos.drain-wait`), and
//! * **barrier stall** — wall-clock time a shard spent waiting at
//!   conductor barriers (from the `shard.barrier_stall_ns` histogram;
//!   zero in unsharded or `without_wall_health` runs, which keeps the
//!   byte-diffed artifacts deterministic).
//!
//! **Components** are coarse attribution scopes derived from span
//! metadata: `bridge:{platform}` for `bridge.*` stages, `shard:s{id}`
//! for barrier stalls, and `process:{source}` for everything else.
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

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{Json, JsonError, Layout};
use crate::time::SimTime;
use crate::trace::{SpanId, SpanRecord, Trace};

/// Which time category a folded span lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeKind {
    SelfTime,
    Queue,
}

/// Accumulated virtual-time decomposition for one attribution
/// component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentTimes {
    /// Self time: span durations minus child-span durations, ns.
    pub self_ns: u64,
    /// Queue wait (`queue.wait`, `transport.send` and `qos.drain-wait`
    /// spans), ns.
    pub queue_ns: u64,
    /// Shard barrier stall (wall-clock, conductor-recorded), ns.
    pub barrier_ns: u64,
    /// Spans folded into this component.
    pub spans: u64,
    /// Largest single span contribution folded so far, ns.
    pub max_span_ns: u64,
    /// Correlation id of the span holding `max_span_ns` (zero when that
    /// span was uncorrelated).
    pub exemplar_corr: u64,
}

impl ComponentTimes {
    /// Total attributed time across all three categories.
    pub fn total_ns(&self) -> u128 {
        u128::from(self.self_ns) + u128::from(self.queue_ns) + u128::from(self.barrier_ns)
    }

    /// The dominant time category (`"self"`, `"queue"`, or
    /// `"barrier"`); ties break self > queue > barrier.
    pub fn dominant(&self) -> &'static str {
        if self.self_ns >= self.queue_ns && self.self_ns >= self.barrier_ns {
            "self"
        } else if self.queue_ns >= self.barrier_ns {
            "queue"
        } else {
            "barrier"
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
                .with("barrier_ns", c.barrier_ns)
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
            let [self_ns, queue_ns, barrier_ns, spans, max_span_ns, exemplar_corr] = c
                .fields([
                    "self_ns",
                    "queue_ns",
                    "barrier_ns",
                    "spans",
                    "max_span_ns",
                    "exemplar_corr",
                ])
                .map_err(|e| JsonError(format!("component {name:?}: {e}")))?;
            let times = ComponentTimes {
                self_ns: self_ns.u64_of(name)?,
                queue_ns: queue_ns.u64_of(name)?,
                barrier_ns: barrier_ns.u64_of(name)?,
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
/// world, advanced at every telemetry sample.
#[derive(Debug, Default)]
pub struct AttributionPlane {
    /// Highest span id already examined; spans at or below it are
    /// folded, pending, or lost.
    cursor: u64,
    /// Span ids seen but still open at the last fold.
    pending: BTreeSet<u64>,
    /// Child-span durations accumulated for parents not yet folded,
    /// keyed by parent span id.
    child_ns: BTreeMap<u64, u64>,
    /// Barrier-stall nanoseconds already attributed (the
    /// `barrier_stall` histogram is cumulative; the fold takes deltas).
    barrier_folded_ns: u128,
    samples: u64,
    spans_folded: u64,
    spans_lost: u64,
    components: BTreeMap<String, ComponentTimes>,
}

/// Maps a span to its attribution component and time category.
///
/// Wait stages are everything a message spends *not being computed on*:
/// `queue.wait` (sitting in a path buffer), `transport.send` (held open
/// from serialization on the sending runtime to decode on the receiving
/// one, so under contention its duration is dominated by medium
/// queueing), and `qos.drain-wait` (a blocked drain sleeping on its
/// retry timer). Everything else is self time — bridge stages on the
/// platform's `bridge:` component, the rest on the owning process.
fn component_of(stage: &str, source: &str) -> (String, TimeKind) {
    if stage == "queue.wait" || stage == "transport.send" || stage == "qos.drain-wait" {
        (format!("process:{source}"), TimeKind::Queue)
    } else if let Some(rest) = stage.strip_prefix("bridge.") {
        let platform = rest.split('.').next().unwrap_or(rest);
        (format!("bridge:{platform}"), TimeKind::SelfTime)
    } else {
        (format!("process:{source}"), TimeKind::SelfTime)
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
    /// lost. `barrier` carries this shard's id and the cumulative
    /// barrier-stall total, attributed as a delta to `shard:s{id}`.
    ///
    /// Only the spans after the cursor and the pending ids are read.
    /// The cursor relies on two [`Trace`] invariants: ids strictly
    /// increase, and eviction only ever removes the oldest spans.
    pub fn fold(&mut self, trace: &Trace, barrier: Option<(u16, u128)>) {
        self.samples = self.samples.saturating_add(1);

        // Phase A: find what is newly ready. Pending opens from earlier
        // folds are re-checked first; then the cursor advances over the
        // newly begun spans.
        let mut ready: Vec<SpanRecord> = Vec::new();
        if !self.pending.is_empty() {
            let mut resolved: Vec<u64> = Vec::new();
            for &id in self.pending.iter() {
                match trace.span_record(SpanId(id)) {
                    Some(s) => {
                        if s.end.is_some() {
                            ready.push(s);
                            resolved.push(id);
                        }
                    }
                    None => {
                        // Evicted by the ring while still open.
                        self.spans_lost = self.spans_lost.saturating_add(1);
                        self.child_ns.remove(&id);
                        resolved.push(id);
                    }
                }
            }
            for id in resolved {
                self.pending.remove(&id);
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
        // Fold in id order so the "longest span wins the exemplar" tie
        // break is independent of how a span became ready.
        ready.sort_by_key(|s| s.id.0);

        // Phase B: accumulate child durations onto parents that have
        // not been folded yet, so a parent folded later reports true
        // self time. (A parent always has a smaller id than its child,
        // so it is either in this batch, still pending, or was already
        // folded with its full duration — in which case the child's
        // time is intentionally not subtracted twice.)
        let batch: BTreeSet<u64> = ready.iter().map(|s| s.id.0).collect();
        for s in &ready {
            if let Some(parent) = s.parent {
                if batch.contains(&parent.0) || self.pending.contains(&parent.0) {
                    let slot = self.child_ns.entry(parent.0).or_insert(0);
                    *slot = slot.saturating_add(s.duration().map_or(0, |d| d.as_nanos()));
                }
            }
        }

        // Phase C: attribute each ready span's own time.
        for s in &ready {
            let own = s
                .duration()
                .map_or(0, |d| d.as_nanos())
                .saturating_sub(self.child_ns.remove(&s.id.0).unwrap_or(0));
            let (key, kind) = component_of(s.stage, &s.source);
            let c = self.components.entry(key).or_default();
            match kind {
                TimeKind::SelfTime => c.self_ns = c.self_ns.saturating_add(own),
                TimeKind::Queue => c.queue_ns = c.queue_ns.saturating_add(own),
            }
            c.spans = c.spans.saturating_add(1);
            if own > c.max_span_ns {
                c.max_span_ns = own;
                c.exemplar_corr = s.corr;
            }
            self.spans_folded = self.spans_folded.saturating_add(1);
        }

        // Barrier stall: cumulative histogram total, attributed as a
        // delta. Empty in unsharded and `without_wall_health` runs.
        if let Some((shard, total_ns)) = barrier {
            let delta = total_ns.saturating_sub(self.barrier_folded_ns);
            if delta > 0 {
                self.barrier_folded_ns = total_ns;
                let c = self
                    .components
                    .entry(format!("shard:s{shard}"))
                    .or_default();
                c.barrier_ns = c
                    .barrier_ns
                    .saturating_add(delta.min(u128::from(u64::MAX)) as u64);
            }
        }
    }

    /// Builds a snapshot of the folded aggregates as of `at`.
    pub fn report(&self, at: SimTime) -> AttributionReport {
        AttributionReport {
            at_ns: at.as_nanos(),
            samples: self.samples,
            spans_folded: self.spans_folded,
            spans_lost: self.spans_lost,
            components: self.components.clone(),
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
    fn fold_decomposes_self_queue_and_barrier() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        let outer = t.span_begin(7, ns(0), "umiddle-runtime", "deliver.local", "");
        let queue = t.span_begin(7, ns(10), "umiddle-runtime", "queue.wait", "");
        t.span_end(queue, ns(40));
        t.span_end(outer, ns(100));
        let hop = t.span_begin(7, ns(50), "mapper", "bridge.upnp.input", "");
        t.span_end(hop, ns(80));
        plane.fold(&t, Some((1, 500)));
        let r = plane.report(SimTime::from_nanos(100));
        let rt = &r.components["process:umiddle-runtime"];
        assert_eq!(rt.self_ns, 70); // 100 minus the 30 ns child
        assert_eq!(rt.queue_ns, 30);
        assert_eq!(rt.exemplar_corr, 7);
        assert_eq!(r.components["bridge:upnp"].self_ns, 30);
        assert_eq!(r.components["shard:s1"].barrier_ns, 500);
        assert_eq!(r.spans_folded, 3);
        assert_eq!(r.spans_lost, 0);

        // Barrier total is cumulative: refolding with the same total
        // attributes nothing new.
        plane.fold(&t, Some((1, 500)));
        assert_eq!(
            plane.report(SimTime::ZERO).components["shard:s1"].barrier_ns,
            500
        );
        assert_eq!(plane.report(SimTime::ZERO).spans_folded, 3);
    }

    #[test]
    fn fold_is_incremental_and_handles_late_closes() {
        let mut plane = AttributionPlane::new();
        let mut t = Trace::default();
        // First fold: parent still open, child closed.
        let outer = t.span_begin(9, ns(0), "umiddle-runtime", "deliver.local", "");
        let queue = t.span_begin(9, ns(0), "umiddle-runtime", "queue.wait", "");
        t.span_end(queue, ns(25));
        plane.fold(&t, None);
        assert_eq!(plane.report(SimTime::ZERO).spans_folded, 1);

        // Second fold: the parent has closed; its self time excludes
        // the child folded a sample earlier.
        t.span_end(outer, ns(100));
        plane.fold(&t, None);
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
        plane.fold(&t, None);
        // The ring evicts span 1 before it ever closed.
        t.span(4, ns(5), "p", "stage", "");
        t.span(4, ns(9), "p", "stage", "");
        assert_eq!(t.ring_overwrites(), 1);
        plane.fold(&t, None);
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
        plane.fold(&t, Some((0, 123)));
        let report = plane.report(SimTime::from_nanos(99));
        let parsed = AttributionReport::from_json(&report.to_json().document()).expect("parses");
        assert_eq!(parsed, report);
        assert!(AttributionReport::from_json("{}").is_err());
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
        c.barrier_ns = 11;
        assert_eq!(c.dominant(), "barrier");
        c.self_ns = 11;
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
