//! The benchmark's metric catalogue: every metric's name, unit and
//! direction, in print order, and the `BENCHMARK.json` built from it
//! (`perfbench --emit-spec`).

use crate::ledger::{layer_name, KERNEL, LAYERS};
use crate::workloads::Workload;

/// One metric of the result line.
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end() -> Vec<MetricSpec> {
    let bounded = |m: MetricSpec, bound: f64| MetricSpec {
        bound: Some(bound),
        ..m
    };
    vec![
        bounded(metric("ops_per_s", "1/s", "higher"), 0.24),
        bounded(metric("setup_s", "s", "lower"), 0.25),
        bounded(metric("peak_rss_mib", "MiB", "lower"), 0.24),
    ]
}

/// APIs timed outside the world, as metric prefixes.
pub const API_TIMINGS: [&str; 7] = [
    "umiddle-usdl.xml.parse_ns",
    "platform-upnp.soap.parse_ns",
    "umiddle-core.wire.path_decode_ns",
    "platform-rmi.marshal.unmarshal_ns",
    "umiddle-core.directory.lookup_ns",
    "umiddle-core.replica.apply_delta_ns",
    "umiddle-core.directory.lookup_1m_ns",
];

/// The per-layer metrics of a traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = vec![
        metric("simnet.kernel.self_share", "share", "lower"),
        metric("simnet.kernel.events_per_call", "events/call", "lower"),
        metric("simnet.kernel.ns_per_event", "ns/event", "lower"),
        metric("simnet.kernel.allocs_per_event", "allocs/event", "lower"),
        metric("simnet.kernel.bytes_per_event", "B/event", "lower"),
        metric("simnet.payload.allocs_per_op", "allocs/op", "lower"),
        metric("simnet.payload.bytes_copied_per_op", "B/op", "lower"),
    ];
    for layer in (KERNEL + 1)..LAYERS {
        let name = layer_name(layer);
        v.push(metric(format!("{name}.calls_per_op"), "calls/op", "lower"));
        v.push(metric(format!("{name}.ns_per_call"), "ns/call", "lower"));
        v.push(metric(format!("{name}.share"), "share", "lower"));
        v.push(metric(
            format!("{name}.allocs_per_call"),
            "allocs/call",
            "lower",
        ));
        v.push(metric(format!("{name}.bytes_per_call"), "B/call", "lower"));
    }
    for api in API_TIMINGS {
        v.push(metric(format!("{api}.p50"), "ns", "lower"));
        v.push(metric(format!("{api}.p99"), "ns", "lower"));
        v.push(metric(format!("{api}.samples"), "count", "higher"));
    }
    v.push(metric("trace.overhead_ratio", "ratio", "lower"));
    v
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_list(specs: &[MetricSpec]) -> String {
    let rows: Vec<String> = specs
        .iter()
        .map(|m| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                quoted(&m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// `BENCHMARK.json`, generated from this catalogue.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let command: Vec<String> = command.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name()),
                quoted(w.why())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        metric_list(&end_to_end()),
        metric_list(&per_layer()),
    )
}
