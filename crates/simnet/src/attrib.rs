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

use crate::time::SimTime;
use crate::trace::SpanRecord;

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
/// parses back ([`Self::from_json`]) so CI can diff a checked-in
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

    /// Deterministic pretty JSON; byte-identical across identical runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"at_ns\": {},\n", self.at_ns));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"spans_folded\": {},\n", self.spans_folded));
        out.push_str(&format!("  \"spans_lost\": {},\n", self.spans_lost));
        out.push_str("  \"components\": {");
        let mut first = true;
        for (name, c) in &self.components {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            crate::trace::push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"self_ns\": {}, \"queue_ns\": {}, \"barrier_ns\": {}, \"spans\": {}, \"max_span_ns\": {}, \"exemplar_corr\": {}}}",
                c.self_ns, c.queue_ns, c.barrier_ns, c.spans, c.max_span_ns, c.exemplar_corr,
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the exact shape [`Self::to_json`] emits (the perf doctor
    /// reads checked-in baseline artifacts with this). Returns `None`
    /// on anything malformed rather than guessing.
    pub fn from_json(text: &str) -> Option<AttributionReport> {
        fn field_u64(line: &str, key: &str) -> Option<u64> {
            let needle = format!("\"{key}\": ");
            let at = line.find(&needle)? + needle.len();
            let rest = &line[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        let mut report = AttributionReport::default();
        let mut seen_top = 0u32;
        for line in text.lines() {
            let trimmed = line.trim();
            if let Some(v) = field_u64(trimmed, "at_ns") {
                report.at_ns = v;
                seen_top += 1;
            } else if let Some(v) = field_u64(trimmed, "samples") {
                report.samples = v;
                seen_top += 1;
            } else if let Some(v) = field_u64(trimmed, "spans_folded") {
                report.spans_folded = v;
                seen_top += 1;
            } else if let Some(v) = field_u64(trimmed, "spans_lost") {
                report.spans_lost = v;
                seen_top += 1;
            } else if trimmed.contains("{\"self_ns\": ") {
                let name_end = trimmed[1..].find('"')? + 1;
                if !trimmed.starts_with('"') {
                    return None;
                }
                let name = trimmed[1..name_end].to_owned();
                report.components.insert(
                    name,
                    ComponentTimes {
                        self_ns: field_u64(trimmed, "self_ns")?,
                        queue_ns: field_u64(trimmed, "queue_ns")?,
                        barrier_ns: field_u64(trimmed, "barrier_ns")?,
                        spans: field_u64(trimmed, "spans")?,
                        max_span_ns: field_u64(trimmed, "max_span_ns")?,
                        exemplar_corr: field_u64(trimmed, "exemplar_corr")?,
                    },
                );
            }
        }
        (seen_top == 4).then_some(report)
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
    /// `spans` must be the world's span journal: ids strictly
    /// increasing, evictions only ever removing a prefix — both are
    /// [`crate::Trace`] invariants the incremental cursor relies on.
    pub fn fold(&mut self, spans: &[SpanRecord], barrier: Option<(u16, u128)>) {
        self.samples = self.samples.saturating_add(1);

        // Phase A: find what is newly ready. Pending opens from earlier
        // folds are re-checked first; then the cursor advances over the
        // newly appended suffix.
        let seen = spans.partition_point(|s| s.id.0 <= self.cursor);
        let mut ready: Vec<&SpanRecord> = Vec::new();
        if !self.pending.is_empty() {
            let prefix = &spans[..seen];
            let mut resolved: Vec<u64> = Vec::new();
            for &id in self.pending.iter() {
                match prefix.binary_search_by_key(&id, |s| s.id.0) {
                    Ok(at) => {
                        if prefix[at].end.is_some() {
                            ready.push(&prefix[at]);
                            resolved.push(id);
                        }
                    }
                    Err(_) => {
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
        for s in &spans[seen..] {
            if s.end.is_some() {
                ready.push(s);
            } else {
                self.pending.insert(s.id.0);
            }
        }
        if let Some(last) = spans.last() {
            self.cursor = self.cursor.max(last.id.0);
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
    use crate::trace::{SpanDetail, SpanId};

    fn span(
        id: u64,
        parent: Option<u64>,
        corr: u64,
        source: &str,
        stage: &'static str,
        start_ns: u64,
        end_ns: Option<u64>,
    ) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: parent.map(SpanId),
            corr,
            source: source.into(),
            stage,
            detail: SpanDetail::EMPTY,
            start: SimTime::from_nanos(start_ns),
            end: end_ns.map(SimTime::from_nanos),
        }
    }

    #[test]
    fn fold_decomposes_self_queue_and_barrier() {
        let mut plane = AttributionPlane::new();
        let spans = vec![
            span(1, None, 7, "umiddle-runtime", "deliver.local", 0, Some(100)),
            span(2, Some(1), 7, "umiddle-runtime", "queue.wait", 10, Some(40)),
            span(3, None, 7, "mapper", "bridge.upnp.input", 50, Some(80)),
        ];
        plane.fold(&spans, Some((1, 500)));
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
        plane.fold(&spans[..0], Some((1, 500)));
        assert_eq!(
            plane.report(SimTime::ZERO).components["shard:s1"].barrier_ns,
            500
        );
    }

    #[test]
    fn fold_is_incremental_and_handles_late_closes() {
        let mut plane = AttributionPlane::new();
        // First fold: parent still open, child closed.
        let mut spans = vec![
            span(1, None, 9, "umiddle-runtime", "deliver.local", 0, None),
            span(2, Some(1), 9, "umiddle-runtime", "queue.wait", 0, Some(25)),
        ];
        plane.fold(&spans, None);
        assert_eq!(plane.report(SimTime::ZERO).spans_folded, 1);

        // Second fold: the parent has closed; its self time excludes
        // the child folded a sample earlier.
        spans[0].end = Some(SimTime::from_nanos(100));
        plane.fold(&spans, None);
        let r = plane.report(SimTime::ZERO);
        let rt = &r.components["process:umiddle-runtime"];
        assert_eq!(rt.self_ns, 75);
        assert_eq!(rt.queue_ns, 25);
        assert_eq!(r.spans_folded, 2);
    }

    #[test]
    fn evicted_open_spans_count_as_lost() {
        let mut plane = AttributionPlane::new();
        let spans = vec![span(1, None, 3, "p", "stage", 0, None)];
        plane.fold(&spans, None);
        // The ring evicted span 1 before it ever closed.
        let later = vec![span(2, None, 3, "p", "stage", 5, Some(9))];
        plane.fold(&later, None);
        let r = plane.report(SimTime::ZERO);
        assert_eq!(r.spans_lost, 1);
        assert_eq!(r.spans_folded, 1);
    }

    #[test]
    fn report_json_round_trips() {
        let mut plane = AttributionPlane::new();
        let spans = vec![
            span(1, None, 7, "umiddle-runtime", "queue.wait", 0, Some(40)),
            span(2, None, 0, "mapper", "bridge.bt.output", 0, Some(10)),
        ];
        plane.fold(&spans, Some((0, 123)));
        let report = plane.report(SimTime::from_nanos(99));
        let parsed = AttributionReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert!(AttributionReport::from_json("{}").is_none());
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
