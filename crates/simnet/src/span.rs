//! Causal analysis over structured spans: per-path tree reconstruction,
//! critical-path latency attribution, and a fluent assertion API for
//! integration tests.
//!
//! Input is always a flat `&[SpanRecord]` slice, read out of a
//! [`Trace`](crate::Trace) with [`Trace::spans`] — analysis never
//! mutates the trace, so it can run repeatedly, mid-run, or over spans
//! captured from another world.
//!
//! Invariants upheld by [`SpanTree::build`] regardless of input:
//! - every input span for the correlation id appears in exactly one tree
//!   node;
//! - a node's children all start at or after the node (children are
//!   sorted by `(start, id)`);
//! - a span whose parent is missing from the slice, or whose parent id
//!   is not strictly smaller than its own (which would admit a cycle),
//!   is promoted to a root and counted in
//!   [`orphans`](SpanTree::orphans) — never dropped, never a panic;
//! - spans that never closed are counted in
//!   [`unclosed`](SpanTree::unclosed) and analyzed as zero-length.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, SpanRecord, Trace};

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span at this node (an owned copy of the trace record).
    pub span: SpanRecord,
    /// Child spans, sorted by `(start, id)`.
    pub children: Vec<SpanNode>,
    /// True when the span named a parent that could not be found (the
    /// node was promoted to a root).
    pub orphaned: bool,
}

impl SpanNode {
    /// Self time: the span's duration minus the time covered by its
    /// children, clamped at zero (children may overlap or overrun).
    pub fn self_time(&self) -> SimDuration {
        let own = self.span.duration().unwrap_or(SimDuration::ZERO);
        let children: u64 = self
            .children
            .iter()
            .map(|c| c.span.duration().unwrap_or(SimDuration::ZERO).as_nanos())
            .sum();
        SimDuration::from_nanos(own.as_nanos().saturating_sub(children))
    }
}

/// The reconstructed span forest of one correlated path.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The correlation id this tree covers.
    pub corr: u64,
    /// Top-level spans (no parent, or parent missing), sorted by
    /// `(start, id)`.
    pub roots: Vec<SpanNode>,
    /// Spans whose parent was not found and were promoted to roots.
    pub orphans: u64,
    /// Spans that were begun but never ended.
    pub unclosed: u64,
}

impl SpanTree {
    /// Rebuilds the span tree for one correlation id from a flat span
    /// slice (e.g. [`Trace::spans`]). Never panics; see the module doc
    /// for the invariants malformed input degrades to.
    pub fn build(spans: &[SpanRecord], corr: u64) -> SpanTree {
        let path: Vec<&SpanRecord> = spans.iter().filter(|s| s.corr == corr).collect();
        let known: BTreeMap<SpanId, usize> =
            path.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut root_indices = Vec::new();
        let mut orphans = 0u64;
        let mut unclosed = 0u64;
        for (i, span) in path.iter().enumerate() {
            if span.end.is_none() {
                unclosed += 1;
            }
            match span.parent {
                // Reject parent ids that are not strictly older than the
                // span itself: ids are minted in begin order, so a
                // forward (or self) reference can only come from
                // hand-built records and would otherwise admit a cycle.
                Some(p) if p < span.id => match known.get(&p) {
                    Some(&pi) => children.entry(pi).or_default().push(i),
                    None => {
                        orphans += 1;
                        root_indices.push(i);
                    }
                },
                Some(_) => {
                    orphans += 1;
                    root_indices.push(i);
                }
                None => root_indices.push(i),
            }
        }
        let orphan_set: Vec<bool> = {
            let mut v = vec![false; path.len()];
            for &i in &root_indices {
                v[i] = path[i].parent.is_some();
            }
            v
        };
        fn build_node(
            i: usize,
            path: &[&SpanRecord],
            children: &BTreeMap<usize, Vec<usize>>,
            orphan_set: &[bool],
        ) -> SpanNode {
            let mut kids: Vec<SpanNode> = children
                .get(&i)
                .map(|c| {
                    c.iter()
                        .map(|&ci| build_node(ci, path, children, orphan_set))
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_by_key(|n| (n.span.start, n.span.id));
            SpanNode {
                span: path[i].clone(),
                children: kids,
                orphaned: orphan_set[i],
            }
        }
        let mut roots: Vec<SpanNode> = root_indices
            .iter()
            .map(|&i| build_node(i, &path, &children, &orphan_set))
            .collect();
        roots.sort_by_key(|n| (n.span.start, n.span.id));
        SpanTree {
            corr,
            roots,
            orphans,
            unclosed,
        }
    }

    /// Builds the tree of every correlation id present in the slice,
    /// sorted by correlation id.
    pub fn build_all(spans: &[SpanRecord]) -> Vec<SpanTree> {
        let mut corrs: Vec<u64> = spans.iter().map(|s| s.corr).collect();
        corrs.sort_unstable();
        corrs.dedup();
        corrs
            .into_iter()
            .map(|c| SpanTree::build(spans, c))
            .collect()
    }

    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }
}

/// Virtual time attributed to one stage (or to one `a -> b` edge — the
/// gap between two consecutive stages) of a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCost {
    /// Stage name, or `"{from} -> {to}"` for an inter-stage gap.
    pub name: String,
    /// Total virtual time attributed across all journeys.
    pub total: SimDuration,
    /// Number of spans (or gaps) that contributed.
    pub count: u64,
}

/// Latency breakdown of one correlated path, per stage, aggregated over
/// every message journey the path carried.
///
/// A *journey* is one message's trip through the mediation pipeline: the
/// spans between consecutive occurrences of the journey-head stage
/// (default [`CriticalPath::DEFAULT_HEAD`], the moment a message enters a
/// path buffer). Within a journey, time is attributed by a watermark
/// sweep over the spans in `(start, id)` order: each instant belongs to
/// the earliest-starting span covering it (named by its stage), and
/// uncovered gaps belong to the `"{prev} -> {next}"` edge between the
/// adjacent stages. Every nanosecond of a journey is attributed to
/// exactly one stage or edge, so [`coverage`](CriticalPath::coverage) is
/// 1.0 whenever any time elapsed at all.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The correlation id analyzed.
    pub corr: u64,
    /// Number of journeys found (occurrences of the head stage, or one
    /// if the head never appears).
    pub journeys: u64,
    /// Summed end-to-end virtual time across journeys.
    pub total: SimDuration,
    /// Summed time attributed to named stages and edges.
    pub attributed: SimDuration,
    /// Per-stage/edge costs, sorted by descending total (name-ascending
    /// on ties, so the order is deterministic).
    pub stages: Vec<StageCost>,
    /// The single most expensive stage or edge, if any time elapsed.
    pub dominant: Option<String>,
}

impl CriticalPath {
    /// The default journey-head stage: a message entering a path buffer.
    pub const DEFAULT_HEAD: &'static str = "queue.wait";

    /// Analyzes the path of `corr` with the default journey head.
    /// Returns `None` when the slice has no spans for `corr`.
    pub fn analyze(spans: &[SpanRecord], corr: u64) -> Option<CriticalPath> {
        CriticalPath::analyze_with_head(spans, corr, CriticalPath::DEFAULT_HEAD)
    }

    /// Analyzes the path of `corr`, starting a new journey at every span
    /// whose stage equals `journey_head`. Spans before the first head
    /// (connection setup) are excluded; if the head never occurs, the
    /// whole path is treated as a single journey.
    pub fn analyze_with_head(
        spans: &[SpanRecord],
        corr: u64,
        journey_head: &str,
    ) -> Option<CriticalPath> {
        let mut path: Vec<&SpanRecord> = spans.iter().filter(|s| s.corr == corr).collect();
        if path.is_empty() {
            return None;
        }
        path.sort_by_key(|s| (s.start, s.id));

        let mut journeys: Vec<Vec<&SpanRecord>> = Vec::new();
        if path.iter().any(|s| s.stage == journey_head) {
            for span in &path {
                if span.stage == journey_head {
                    journeys.push(vec![span]);
                } else if let Some(current) = journeys.last_mut() {
                    current.push(span);
                }
            }
        } else {
            journeys.push(path.clone());
        }

        let mut costs: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // name -> (ns, count)
        let mut total_ns = 0u64;
        for journey in &journeys {
            let start = journey[0].start;
            let end = journey
                .iter()
                .map(|s| s.effective_end())
                .fold(start, SimTime::max);
            total_ns += (end - start).as_nanos();

            let mut cursor = start;
            let mut prev_stage = journey[0].stage;
            for span in journey {
                if span.start > cursor {
                    let gap = (span.start - cursor).as_nanos();
                    let edge = format!("{prev_stage} -> {}", span.stage);
                    let slot = costs.entry(edge).or_insert((0, 0));
                    slot.0 += gap;
                    slot.1 += 1;
                    cursor = span.start;
                }
                let span_end = span.effective_end();
                if span_end > cursor {
                    let covered = (span_end - cursor).as_nanos();
                    let slot = costs.entry(span.stage.to_owned()).or_insert((0, 0));
                    slot.0 += covered;
                    slot.1 += 1;
                    cursor = span_end;
                }
                prev_stage = span.stage;
            }
        }

        let attributed_ns: u64 = costs.values().map(|(ns, _)| ns).sum();
        let mut stages: Vec<StageCost> = costs
            .into_iter()
            .map(|(name, (ns, count))| StageCost {
                name,
                total: SimDuration::from_nanos(ns),
                count,
            })
            .collect();
        stages.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));
        let dominant = stages
            .first()
            .filter(|s| !s.total.is_zero())
            .map(|s| s.name.clone());
        Some(CriticalPath {
            corr,
            journeys: journeys.len() as u64,
            total: SimDuration::from_nanos(total_ns),
            attributed: SimDuration::from_nanos(attributed_ns),
            stages,
            dominant,
        })
    }

    /// Fraction of end-to-end time attributed to named stages/edges, in
    /// `[0, 1]`. 1.0 for an empty (zero-duration) path.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            1.0
        } else {
            self.attributed.as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Renders a human-readable breakdown table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path corr={:#x}: {} journeys, total {} ({:.1}% attributed)\n",
            self.corr,
            self.journeys,
            self.total,
            self.coverage() * 100.0,
        );
        for s in &self.stages {
            let pct = if self.total.is_zero() {
                0.0
            } else {
                s.total.as_secs_f64() / self.total.as_secs_f64() * 100.0
            };
            out.push_str(&format!(
                "  {:>5.1}%  {:>12}  x{:<4}  {}\n",
                pct,
                s.total.to_string(),
                s.count,
                s.name
            ));
        }
        if let Some(d) = &self.dominant {
            out.push_str(&format!("  dominant: {d}\n"));
        }
        out
    }
}

/// Fluent assertions over a recorded trace, for integration tests:
///
/// ```
/// # use simnet::{SimTime, SimDuration, Trace, TraceAssert};
/// # let mut t = Trace::default();
/// # let s = t.span_begin(7, SimTime::ZERO, "rt0", "connect", "");
/// # t.span_end(s, SimTime::from_millis(2));
/// TraceAssert::new(&t)
///     .expect_path(7)
///     .through(&["connect"])
///     .within(SimDuration::from_millis(5));
/// ```
///
/// Each method panics with a readable diagnostic on failure, so a
/// violated expectation reads like a test assertion, not a stack trace
/// into analysis code.
#[derive(Debug)]
pub struct TraceAssert<'t> {
    spans: Cow<'t, [SpanRecord]>,
}

impl<'t> TraceAssert<'t> {
    /// Wraps a trace for assertion, reading its spans once.
    pub fn new(trace: &Trace) -> TraceAssert<'t> {
        TraceAssert {
            spans: Cow::Owned(trace.spans().collect()),
        }
    }

    /// Wraps a raw span slice (e.g. spans copied out of a world).
    pub fn over(spans: &'t [SpanRecord]) -> TraceAssert<'t> {
        TraceAssert {
            spans: Cow::Borrowed(spans),
        }
    }

    /// Audits one platform bridge's hop instrumentation: counts the
    /// `bridge.{platform}.input` ingress and `bridge.{platform}.output`
    /// egress hop spans, asserting the bridge recorded hops at all and
    /// that every hop span closed — a batch of N messages must yield N
    /// per-message hop spans, each with an explicit end, never one span
    /// per batch left dangling. Returns the `(ingress, egress)` hop
    /// counts; since every hop bumps the bridge's traffic counter
    /// exactly once, callers close the audit by matching
    /// `ingress + egress` against `bridge.{platform}.traffic`.
    ///
    /// # Panics
    ///
    /// Panics when the bridge recorded no hops in either direction, or
    /// when any hop span never closed.
    pub fn balanced(&self, platform: &str) -> (u64, u64) {
        let ingress = format!("bridge.{platform}.input");
        let egress = format!("bridge.{platform}.output");
        let mut counts = (0u64, 0u64);
        let mut unclosed: Vec<String> = Vec::new();
        for s in self.spans.iter() {
            let slot = if s.stage == ingress {
                &mut counts.0
            } else if s.stage == egress {
                &mut counts.1
            } else {
                continue;
            };
            *slot += 1;
            if s.end.is_none() {
                unclosed.push(format!("{} ({})", s.stage, s.source));
            }
        }
        assert!(
            counts.0 + counts.1 > 0,
            "bridge {platform}: no hop spans recorded in either direction"
        );
        assert!(
            unclosed.is_empty(),
            "bridge {platform}: {} hop span(s) never closed: {:?}",
            unclosed.len(),
            unclosed
        );
        counts
    }

    /// Starts an expectation on the path of `corr`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no spans for `corr`.
    pub fn expect_path(&self, corr: u64) -> PathExpectation<'_> {
        let mut path: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.corr == corr).collect();
        path.sort_by_key(|s| (s.start, s.id));
        assert!(
            !path.is_empty(),
            "no spans recorded for corr={corr:#x} (trace has {} spans)",
            self.spans.len()
        );
        PathExpectation {
            corr,
            path,
            window: None,
        }
    }
}

/// A pending expectation on one correlated path; see [`TraceAssert`].
#[derive(Debug)]
pub struct PathExpectation<'t> {
    corr: u64,
    path: Vec<&'t SpanRecord>,
    /// Time window of the last `through` match, used by `within`.
    window: Option<(SimTime, SimTime)>,
}

impl PathExpectation<'_> {
    /// Asserts the path passes through `stages` in order (as a
    /// subsequence of the chronological span list — other stages may
    /// interleave). Narrows the window later `within` calls check.
    ///
    /// # Panics
    ///
    /// Panics when a stage never occurs after the previous match, with
    /// the full recorded stage list in the message.
    pub fn through(mut self, stages: &[&str]) -> Self {
        let mut next = 0usize;
        let mut first: Option<&SpanRecord> = None;
        let mut last: Option<&SpanRecord> = None;
        for span in &self.path {
            if next < stages.len() && span.stage == stages[next] {
                first.get_or_insert(span);
                last = Some(span);
                next += 1;
            }
        }
        if next < stages.len() {
            let recorded: Vec<&str> = self.path.iter().map(|s| s.stage).collect();
            panic!(
                "corr={:#x}: expected path through {:?}, but {:?} never occurred \
                 (after {} earlier matches); recorded stages: {:?}",
                self.corr, stages, stages[next], next, recorded
            );
        }
        if let (Some(f), Some(l)) = (first, last) {
            self.window = Some((f.start, l.effective_end().max(f.start)));
        }
        self
    }

    /// Asserts the matched window — or, without a prior `through`, the
    /// whole path — fits in `budget` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics when the elapsed time exceeds the budget.
    pub fn within(self, budget: SimDuration) -> Self {
        let (start, end) = self.window.unwrap_or_else(|| {
            let start = self.path[0].start;
            let end = self
                .path
                .iter()
                .map(|s| s.effective_end())
                .fold(start, SimTime::max);
            (start, end)
        });
        let elapsed = end - start;
        assert!(
            elapsed <= budget,
            "corr={:#x}: path took {elapsed} ({start}..{end}), over the {budget} budget",
            self.corr
        );
        self
    }

    /// Asserts every span in the matched path closed (no message died
    /// mid-pipeline).
    ///
    /// # Panics
    ///
    /// Panics listing the unclosed stages.
    pub fn all_closed(self) -> Self {
        let open: Vec<String> = self
            .path
            .iter()
            .filter(|s| s.end.is_none())
            .map(|s| format!("{} ({})", s.stage, s.source))
            .collect();
        assert!(
            open.is_empty(),
            "corr={:#x}: {} span(s) never closed: {:?}",
            self.corr,
            open.len(),
            open
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanDetail;

    fn records(t: &Trace) -> Vec<SpanRecord> {
        t.spans().collect()
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn demo_trace() -> Trace {
        let mut t = Trace::default();
        t.span(7, ms(0), "rt0", "connect", "");
        let q = t.span_begin(7, ms(1), "rt0", "queue.wait", "");
        t.span_end(q, ms(3));
        let x = t.span_begin(7, ms(3), "rt0", "transport.send", "");
        t.span_end(x, ms(6));
        let b = t.span_begin(7, ms(6), "upnp", "bridge.upnp.input", "");
        t.span_end(b, ms(10));
        t
    }

    #[test]
    fn tree_rebuilds_roots_and_nesting() {
        let mut t = Trace::default();
        let outer = t.span_begin(5, ms(0), "rt0", "outer", "");
        t.span(5, ms(1), "rt0", "inner", "");
        t.span_end(outer, ms(4));
        t.span(5, ms(5), "rt0", "after", "");
        t.span(6, ms(0), "rt1", "other-path", "");
        let tree = SpanTree::build(&records(&t), 5);
        assert_eq!(tree.span_count(), 3);
        assert_eq!(tree.roots.len(), 2);
        assert_eq!(tree.roots[0].span.stage, "outer");
        assert_eq!(tree.roots[0].children[0].span.stage, "inner");
        assert_eq!(tree.roots[1].span.stage, "after");
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.unclosed, 0);
        assert_eq!(SpanTree::build_all(&records(&t)).len(), 2);
    }

    #[test]
    fn orphans_and_unclosed_are_reported_not_dropped() {
        let mut t = Trace::default();
        let orphan = SpanRecord {
            id: SpanId(99),
            parent: Some(SpanId(42)), // never recorded
            corr: 1,
            source: "x".into(),
            stage: "lost-parent",
            detail: SpanDetail::EMPTY,
            start: ms(1),
            end: None,
        };
        t.span(1, ms(0), "x", "root", "");
        let spans: Vec<SpanRecord> = t.spans().chain([orphan]).collect();
        let tree = SpanTree::build(&spans, 1);
        assert_eq!(tree.span_count(), 2, "orphan is kept as a root");
        assert_eq!(tree.orphans, 1);
        assert_eq!(tree.unclosed, 1);
    }

    #[test]
    fn self_parent_reference_cannot_cycle() {
        let span = SpanRecord {
            id: SpanId(3),
            parent: Some(SpanId(3)),
            corr: 1,
            source: "x".into(),
            stage: "self-ref",
            detail: SpanDetail::EMPTY,
            start: ms(0),
            end: Some(ms(1)),
        };
        let tree = SpanTree::build(&[span], 1);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.orphans, 1);
    }

    #[test]
    fn critical_path_attributes_every_nanosecond() {
        let t = demo_trace();
        let cp = CriticalPath::analyze(&records(&t), 7).unwrap();
        assert_eq!(cp.journeys, 1);
        assert_eq!(cp.total, SimDuration::from_millis(9)); // 1ms..10ms
        assert_eq!(cp.attributed, cp.total);
        assert!((cp.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(cp.dominant.as_deref(), Some("bridge.upnp.input"));
        let get = |name: &str| {
            cp.stages
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.total)
                .unwrap_or(SimDuration::ZERO)
        };
        assert_eq!(get("queue.wait"), SimDuration::from_millis(2));
        assert_eq!(get("transport.send"), SimDuration::from_millis(3));
        assert_eq!(get("bridge.upnp.input"), SimDuration::from_millis(4));
        assert!(cp.render().contains("dominant: bridge.upnp.input"));
    }

    #[test]
    fn gaps_become_named_edges() {
        let mut t = Trace::default();
        let q = t.span_begin(1, ms(0), "rt0", "queue.wait", "");
        t.span_end(q, ms(1));
        let b = t.span_begin(1, ms(4), "rt1", "bridge.rmi.input", "");
        t.span_end(b, ms(5));
        let cp = CriticalPath::analyze(&records(&t), 1).unwrap();
        let edge = cp
            .stages
            .iter()
            .find(|s| s.name == "queue.wait -> bridge.rmi.input")
            .expect("gap edge");
        assert_eq!(edge.total, SimDuration::from_millis(3));
        assert_eq!(
            cp.dominant.as_deref(),
            Some("queue.wait -> bridge.rmi.input")
        );
    }

    #[test]
    fn journeys_split_at_head_and_exclude_setup() {
        let mut t = Trace::default();
        t.span(1, ms(0), "rt0", "connect", ""); // setup, excluded
        for i in 0..3u64 {
            let q = t.span_begin(1, ms(10 * i + 1), "rt0", "queue.wait", "");
            t.span_end(q, ms(10 * i + 2));
        }
        let cp = CriticalPath::analyze(&records(&t), 1).unwrap();
        assert_eq!(cp.journeys, 3);
        assert_eq!(cp.total, SimDuration::from_millis(3));
    }

    #[test]
    fn trace_assert_passes_on_good_path() {
        let t = demo_trace();
        TraceAssert::new(&t)
            .expect_path(7)
            .through(&["connect", "queue.wait", "bridge.upnp.input"])
            .within(SimDuration::from_millis(10))
            .all_closed();
    }

    #[test]
    #[should_panic(expected = "never occurred")]
    fn trace_assert_rejects_missing_stage() {
        let t = demo_trace();
        TraceAssert::new(&t)
            .expect_path(7)
            .through(&["connect", "bridge.bluetooth.input"]);
    }

    #[test]
    #[should_panic(expected = "over the")]
    fn trace_assert_rejects_blown_budget() {
        let t = demo_trace();
        TraceAssert::new(&t)
            .expect_path(7)
            .through(&["queue.wait", "bridge.upnp.input"])
            .within(SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "no spans recorded")]
    fn trace_assert_rejects_unknown_corr() {
        let t = demo_trace();
        TraceAssert::new(&t).expect_path(0xdead);
    }

    #[test]
    fn balanced_counts_matched_bridge_hops() {
        let mut t = Trace::default();
        for i in 0..3u64 {
            t.span(i + 1, ms(i), "mapper", "bridge.upnp.input", "");
        }
        t.span(0, ms(9), "mapper", "bridge.upnp.output", "");
        let (ingress, egress) = TraceAssert::new(&t).balanced("upnp");
        assert_eq!((ingress, egress), (3, 1));
    }

    #[test]
    #[should_panic(expected = "no hop spans")]
    fn balanced_rejects_a_bridge_with_no_hops() {
        let mut t = Trace::default();
        t.span(1, ms(0), "mapper", "bridge.rmi.input", "");
        // rmi recorded a hop; webservices recorded nothing.
        TraceAssert::new(&t).balanced("webservices");
    }

    #[test]
    #[should_panic(expected = "never closed")]
    fn balanced_rejects_unclosed_hop() {
        let mut t = Trace::default();
        t.span(1, ms(0), "mapper", "bridge.motes.input", "");
        t.span_begin(1, ms(1), "mapper", "bridge.motes.output", "");
        TraceAssert::new(&t).balanced("motes");
    }
}
