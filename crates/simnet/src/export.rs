//! Deterministic trace exporters.
//!
//! Span exporters are pure functions of the recorded span slice, and
//! [`open_metrics`] is a pure function of a metrics snapshot — so two
//! seeded runs of the same world export byte-identical artifacts (the
//! determinism gates in `ci.sh` diff them):
//!
//! - [`perfetto_trace_json`]: Chrome `trace_event` JSON, loadable in
//!   `ui.perfetto.dev` or `chrome://tracing`. One virtual *thread per
//!   process* (mapper, runtime, device, …), timestamps in virtual-time
//!   microseconds, span metadata (correlation id, parent, detail) in
//!   `args`.
//! - [`folded_stacks`]: folded-stack flamegraph lines
//!   (`frame;frame;frame value`), one stack per span-tree path rooted at
//!   its correlation id, weighted by self time in nanoseconds. Feed to
//!   any `flamegraph.pl`-compatible renderer.
//!
//! No floating point is involved: microsecond timestamps are rendered as
//! integer-division quotient plus a three-digit nanosecond remainder.

use std::collections::BTreeMap;

use crate::json::{Json, Layout};
use crate::span::{SpanNode, SpanTree};
use crate::trace::{MetricsSnapshot, SpanRecord, LATENCY_BUCKET_BOUNDS_NS};

/// Renders nanoseconds as decimal microseconds (`123.456`) without
/// going through floating point.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Exports spans as Chrome/Perfetto `trace_event` JSON.
///
/// Every distinct span source (process name) becomes its own thread,
/// tid assigned in sorted-name order; each span becomes a complete
/// (`"ph": "X"`) event at its virtual start time, all under one
/// Perfetto process (pid 1). Spans that never closed are exported zero-length with
/// `"unclosed": true` in `args`, so they remain visible rather than
/// stretching to infinity.
pub fn perfetto_trace_json(spans: &[SpanRecord]) -> Json {
    let mut sources: Vec<&str> = spans.iter().map(|s| &*s.source).collect();
    sources.sort_unstable();
    sources.dedup();
    let tids: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i + 1))
        .collect();

    let meta = |name: &str, tid: usize, arg: &str| {
        Json::inline()
            .with("ph", "M")
            .with("name", name)
            .with("pid", 1u64)
            .with("tid", tid)
            .with("args", Json::inline().with("name", arg))
    };
    let mut events = vec![meta("process_name", 0, "simnet federation")];
    for (&source, &tid) in &tids {
        events.push(meta("thread_name", tid, source));
    }

    for span in spans {
        let tid = tids[&*span.source];
        let start_ns = span.start.as_nanos();
        let dur_ns = span.duration().map(|d| d.as_nanos()).unwrap_or(0);
        let mut args = Json::inline()
            .with("corr", format!("{:#x}", span.corr))
            .with("span", span.id.0);
        if let Some(parent) = span.parent {
            args.push("parent", parent.0);
        }
        let detail = span.detail.to_string();
        if !detail.is_empty() {
            args.push("detail", detail);
        }
        if span.end.is_none() {
            args.push("unclosed", true);
        }
        events.push(
            Json::inline()
                .with("ph", "X")
                .with("name", span.stage)
                .with("cat", span.stage.split('.').next().unwrap_or("span"))
                .with("ts", Json::Num(micros(start_ns)))
                .with("dur", Json::Num(micros(dur_ns)))
                .with("pid", 1u64)
                .with("tid", tid)
                .with("args", args),
        );
    }
    Json::inline()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Array(Layout::Block, events))
}

/// Exports spans as folded-stack flamegraph lines, weighted by span
/// self time in nanoseconds.
///
/// Each line is `corr:{id};stage;stage… {self_time_ns}`; stacks follow
/// the reconstructed [`SpanTree`] parent links, identical stacks are
/// merged (weights summed), zero-weight stacks (instant spans, unclosed
/// spans) are omitted, and lines are sorted — so output is byte-stable
/// across runs.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for tree in SpanTree::build_all(spans) {
        let root_frame = if tree.corr == 0 {
            "corr:none".to_owned()
        } else {
            format!("corr:{:#x}", tree.corr)
        };
        for root in &tree.roots {
            fold_node(root, &root_frame, &mut weights);
        }
    }
    let mut out = String::new();
    for (stack, ns) in weights {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Exports a metrics snapshot as OpenMetrics text exposition
/// (Prometheus text format): counters as `name_total`, gauges plain,
/// histograms with cumulative `le` buckets plus `_count` and `_sum`,
/// terminated by `# EOF`. Metric names are sanitized to
/// `[a-zA-Z0-9_:]` (every other byte becomes `_`), values are integers,
/// and map order is the registry's sorted order — so output is
/// byte-identical across identical runs.
pub fn open_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n}_total {v}\n"));
    }
    for (name, v) in &snapshot.gauges {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snapshot.histograms {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BUCKET_BOUNDS_NS.iter().enumerate() {
            cumulative = cumulative.saturating_add(h.bucket_counts()[i]);
            out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{n}_bucket{{le=\"+Inf\"}} {}\n{n}_count {}\n{n}_sum {}\n",
            h.count(),
            h.count(),
            h.sum_ns()
        ));
    }
    out.push_str("# EOF\n");
    out
}

/// One row of a differential attribution comparison: how much one
/// (component, time-kind) cell moved between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionDelta {
    /// Attribution component key (`process:…` or `bridge:…`).
    pub component: String,
    /// Time category: `"self"` or `"queue"`.
    pub kind: &'static str,
    /// Attributed nanoseconds in the baseline snapshot.
    pub before_ns: u64,
    /// Attributed nanoseconds in the current snapshot.
    pub after_ns: u64,
    /// `after - before`, signed (positive = regression).
    pub delta_ns: i128,
    /// The current snapshot's exemplar corr for the component (zero
    /// when it has none) — the journey to look at first.
    pub exemplar_corr: u64,
}

/// A ranked differential attribution report: every (component, kind)
/// cell that moved between two snapshots, biggest regression first.
/// This is the perf doctor's answer to "what regressed, where, by how
/// much" — `bench perf-sched --check` renders it when a floor fails, so CI
/// names the offending component instead of an aggregate number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionDiff {
    /// Virtual time of the baseline snapshot, ns.
    pub before_at_ns: u64,
    /// Virtual time of the current snapshot, ns.
    pub after_at_ns: u64,
    /// Changed cells, ranked by `delta_ns` descending (regressions
    /// first), ties broken by component then kind.
    pub rows: Vec<AttributionDelta>,
}

impl AttributionDiff {
    /// The worst regression (largest positive delta), if any cell
    /// regressed at all.
    pub fn top_regression(&self) -> Option<&AttributionDelta> {
        self.rows.first().filter(|r| r.delta_ns > 0)
    }

    /// Deterministic JSON value; byte-identical across identical runs.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|r| {
            Json::inline()
                .with("component", &r.component)
                .with("kind", r.kind)
                .with("before_ns", r.before_ns)
                .with("after_ns", r.after_ns)
                .with("delta_ns", r.delta_ns)
                .with("exemplar_corr", r.exemplar_corr)
        });
        Json::block()
            .with("before_at_ns", self.before_at_ns)
            .with("after_at_ns", self.after_at_ns)
            .with("rows", Json::array(Layout::Block, rows))
    }

    /// Human-readable ranking for CI logs, at most `limit` rows.
    pub fn to_text(&self, limit: usize) -> String {
        if self.rows.is_empty() {
            return "attribution diff: no component moved\n".to_owned();
        }
        let mut out = String::from("attribution diff (worst regression first):\n");
        for r in self.rows.iter().take(limit.max(1)) {
            let sign = if r.delta_ns >= 0 { "+" } else { "" };
            out.push_str(&format!(
                "  {}/{}: {} -> {} ns ({sign}{} ns, exemplar corr {:#x})\n",
                r.component, r.kind, r.before_ns, r.after_ns, r.delta_ns, r.exemplar_corr,
            ));
        }
        out
    }
}

/// Compares two attribution snapshots — a checked-in baseline and the
/// current run — and ranks every (component, time-kind) cell by how
/// much it regressed. Cells are the union of both snapshots' component
/// sets (a component present on only one side diffs against zero), and
/// unchanged cells are omitted, so a byte-identical pair of snapshots
/// yields an empty diff.
pub fn diff_attribution(
    before: &crate::attrib::AttributionReport,
    after: &crate::attrib::AttributionReport,
) -> AttributionDiff {
    let zero = crate::attrib::ComponentTimes::default();
    let mut rows = Vec::new();
    let keys: std::collections::BTreeSet<&String> = before
        .components
        .keys()
        .chain(after.components.keys())
        .collect();
    for key in keys {
        let b = before.components.get(key).unwrap_or(&zero);
        let a = after.components.get(key).unwrap_or(&zero);
        for (kind, before_ns, after_ns) in [
            ("self", b.self_ns, a.self_ns),
            ("queue", b.queue_ns, a.queue_ns),
        ] {
            if before_ns == after_ns {
                continue;
            }
            rows.push(AttributionDelta {
                component: key.clone(),
                kind,
                before_ns,
                after_ns,
                delta_ns: i128::from(after_ns) - i128::from(before_ns),
                exemplar_corr: a.exemplar_corr,
            });
        }
    }
    rows.sort_by(|x, y| {
        y.delta_ns
            .cmp(&x.delta_ns)
            .then_with(|| x.component.cmp(&y.component))
            .then_with(|| x.kind.cmp(y.kind))
    });
    AttributionDiff {
        before_at_ns: before.at_ns,
        after_at_ns: after.at_ns,
        rows,
    }
}

/// Maps a dot-scoped registry name onto the OpenMetrics charset: every
/// byte outside `[a-zA-Z0-9_:]` becomes `_`.
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn fold_node(node: &SpanNode, prefix: &str, weights: &mut BTreeMap<String, u64>) {
    // Semicolons separate frames in the folded format, so they cannot
    // appear inside one.
    let frame = node.span.stage.replace(';', ",");
    let stack = format!("{prefix};{frame}");
    let self_ns = node.self_time().as_nanos();
    if self_ns > 0 {
        *weights.entry(stack.clone()).or_insert(0) += self_ns;
    }
    for child in &node.children {
        fold_node(child, &stack, weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::trace::Trace;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn demo_trace() -> Trace {
        let mut t = Trace::default();
        let q = t.span_begin(7, ms(1), "rt0", "queue.wait", "path=video");
        t.span_end(q, ms(3));
        let b = t.span_begin(7, ms(3), "upnp-mapper", "bridge.upnp.input", "");
        t.span(7, ms(4), "upnp-mapper", "bridge.upnp.soap", "");
        t.span_end(b, ms(6));
        t.span_begin(7, ms(6), "rt1", "never.closed", "");
        t
    }

    #[test]
    fn perfetto_export_is_wellformed_and_deterministic() {
        let t = demo_trace();
        let spans: Vec<SpanRecord> = t.spans().collect();
        let a = perfetto_trace_json(&spans).to_string();
        let b = perfetto_trace_json(&spans).to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"thread_name\""));
        assert!(a.contains("\"name\": \"queue.wait\""));
        // 1 ms start renders as integer-math microseconds.
        assert!(a.contains("\"ts\": 1000.000"));
        assert!(a.contains("\"dur\": 2000.000"));
        assert!(a.contains("\"unclosed\": true"));
        // Three sources → tids 1..=3 in sorted order.
        assert!(a.contains("\"tid\": 3"));
    }

    #[test]
    fn folded_stacks_follow_tree_paths() {
        let t = demo_trace();
        let folded = folded_stacks(&t.spans().collect::<Vec<_>>());
        let lines: Vec<&str> = folded.lines().collect();
        // queue.wait: 2 ms self. bridge.upnp.input: 3 ms minus the
        // zero-length child = 3 ms self. Instant + unclosed spans have
        // no weight and are omitted.
        assert_eq!(
            lines,
            vec![
                "corr:0x7;bridge.upnp.input 3000000",
                "corr:0x7;queue.wait 2000000",
            ]
        );
    }

    #[test]
    fn micros_renders_without_float() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_500_250), "1500.250");
    }

    #[test]
    fn open_metrics_exposition_is_wellformed_and_deterministic() {
        use crate::time::SimDuration;
        use crate::trace::Metrics;
        let mut m = Metrics::default();
        m.counter_add("umiddle.connections", 3);
        m.gauge_set("sched.events_pending", 12);
        m.observe("rt0.transport_latency", SimDuration::from_micros(500));
        m.observe("rt0.transport_latency", SimDuration::from_millis(2));
        let a = open_metrics(&m.snapshot());
        let b = open_metrics(&m.snapshot());
        assert_eq!(a, b);
        assert!(a.contains("# TYPE umiddle_connections counter\n"));
        assert!(a.contains("umiddle_connections_total 3\n"));
        assert!(a.contains("sched_events_pending 12\n"));
        // 500 µs lands in the le=500000 bucket; both fit under 2 ms.
        assert!(a.contains("rt0_transport_latency_bucket{le=\"500000\"} 1\n"));
        assert!(a.contains("rt0_transport_latency_bucket{le=\"2000000\"} 2\n"));
        assert!(a.contains("rt0_transport_latency_bucket{le=\"+Inf\"} 2\n"));
        assert!(a.contains("rt0_transport_latency_count 2\n"));
        assert!(a.contains("rt0_transport_latency_sum 2500000\n"));
        assert!(a.ends_with("# EOF\n"));
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(
            sanitize_metric_name("bridge.upnp.last-traffic ns"),
            "bridge_upnp_last_traffic_ns"
        );
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn diff_attribution_ranks_regressions_and_skips_unchanged_cells() {
        use crate::attrib::{AttributionReport, ComponentTimes};
        let mut before = AttributionReport {
            at_ns: 100,
            ..AttributionReport::default()
        };
        before.components.insert(
            "process:rt".to_owned(),
            ComponentTimes {
                self_ns: 50,
                queue_ns: 10,
                ..ComponentTimes::default()
            },
        );
        before.components.insert(
            "bridge:upnp".to_owned(),
            ComponentTimes {
                self_ns: 30,
                ..ComponentTimes::default()
            },
        );
        let mut after = AttributionReport {
            at_ns: 200,
            ..AttributionReport::default()
        };
        after.components.insert(
            "process:rt".to_owned(),
            ComponentTimes {
                self_ns: 50, // unchanged → omitted
                queue_ns: 5_010,
                exemplar_corr: 0xAB,
                ..ComponentTimes::default()
            },
        );
        // bridge:upnp vanished and bridge:rmi appeared → each diffs
        // against zero.
        after.components.insert(
            "bridge:rmi".to_owned(),
            ComponentTimes {
                self_ns: 7,
                ..ComponentTimes::default()
            },
        );

        let diff = diff_attribution(&before, &after);
        let cells: Vec<(&str, &str, i128)> = diff
            .rows
            .iter()
            .map(|r| (r.component.as_str(), r.kind, r.delta_ns))
            .collect();
        assert_eq!(
            cells,
            vec![
                ("process:rt", "queue", 5_000),
                ("bridge:rmi", "self", 7),
                ("bridge:upnp", "self", -30),
            ]
        );
        let top = diff.top_regression().expect("regressed");
        assert_eq!(top.component, "process:rt");
        assert_eq!(top.exemplar_corr, 0xAB);
        assert_eq!(diff.to_json(), diff_attribution(&before, &after).to_json());
        assert!(diff.to_text(10).contains("process:rt/queue"));

        // Identical snapshots → empty diff, no regression.
        let same = diff_attribution(&after, &after);
        assert!(same.rows.is_empty());
        assert!(same.top_regression().is_none());
        assert!(same.to_text(10).contains("no component moved"));
    }
}
