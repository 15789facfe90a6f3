//! Plain-text report rendering for the experiment harness, plus the
//! shared file writer of the `bench` subcommands.

use crate::experiments::*;

/// Writes formatted text to standard output: the one stdout writer of
/// the `bench` binary and its library, used through [`out!`](crate::out)
/// and [`outln!`](crate::outln). When the reader has gone away (`bench
/// fingerprint | head -1`), the process exits with status 0, since
/// nobody is left to read the rest; `println!` would panic there. Any
/// other write error panics.
pub fn out(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("cannot write to standard output: {e}"),
    }
}

/// `print!` through [`report::out`](crate::report::out).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::report::out(format_args!($($arg)*))
    };
}

/// `println!` through [`report::out`](crate::report::out).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::report::out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::report::out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn hr(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Writes one deterministic artifact to `path`, creating parent
/// directories as needed, and prints the canonical
/// `wrote {path} ({len} B) — {what}` line. Every file a `bench`
/// subcommand writes goes through here, so the CI determinism gates
/// see one consistent write path and stdout shape.
pub fn write_artifact(path: &str, body: &str, what: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create artifact directory");
        }
    }
    std::fs::write(path, body).expect("write artifact");
    crate::outln!("wrote {path} ({} B) — {what}", body.len());
}

/// Renders the Figure-10 table.
pub fn render_e1(rows: &[MappingRow]) -> String {
    let mut out = hr("E1 / Figure 10 — service-level bridging (translator generation)");
    out.push_str(&format!(
        "{:40} {:>12} {:>12} {:>12} {:>8}\n",
        "device", "mean time", "rate (/s)", "paper (/s)", "samples"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:40} {:>12} {:>12.2} {:>12.1} {:>8}\n",
            r.device,
            r.mean_time.to_string(),
            r.rate_per_sec,
            r.paper_rate,
            r.samples
        ));
    }
    out
}

/// Renders the §5.2 table.
pub fn render_e2(r: &DeviceLevelResults) -> String {
    let mut out = hr("E2 / §5.2 — device-level bridging latency");
    out.push_str(&format!(
        "UPnP SetPower total        : {:>10}   (paper: 160 ms, n={})\n",
        r.upnp_total.to_string(),
        r.upnp_samples
    ));
    out.push_str(&format!(
        "  of which uMiddle         : {:>10}   (paper: ~10 ms)\n",
        r.upnp_umiddle_share.to_string()
    ));
    out.push_str(&format!(
        "  of which UPnP domain     : {:>10}   (paper: ~150 ms)\n",
        (r.upnp_total - r.upnp_umiddle_share).to_string()
    ));
    out.push_str(&format!(
        "Bluetooth signal translate : {:>10}   (paper: 23 ms, n={})\n",
        r.mouse_translation.to_string(),
        r.mouse_samples
    ));
    out
}

/// Renders the Figure-11 table.
pub fn render_e3(rows: &[ThroughputRow]) -> String {
    let mut out = hr("E3 / Figure 11 — transport-level bridging throughput");
    out.push_str(&format!(
        "{:16} {:>12} {:>12} {:>10}\n",
        "test", "Mbps", "paper Mbps", "messages"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:16} {:>12.2} {:>12.1} {:>10}\n",
            r.test, r.mbps, r.paper_mbps, r.observed
        ));
    }
    out
}

/// Renders the E4 ablation.
pub fn render_e4(r: &AblationTranslationResults) -> String {
    let mut out = hr("E4 — translation-model ablation (direct vs mediated)");
    out.push_str(&format!(
        "{:>14} {:>18} {:>20}\n",
        "device types", "direct n(n-1)", "mediated n"
    ));
    for (n, d, m) in &r.growth {
        out.push_str(&format!("{n:>14} {d:>18} {m:>20}\n"));
    }
    out.push_str(&format!(
        "camera→TV delivered: direct bridge {} frames, mediated stack {} frames\n",
        r.direct_delivered, r.mediated_delivered
    ));
    out
}

/// Renders the E5 ablation.
pub fn render_e5(rows: &[QosRow]) -> String {
    let mut out = hr("E5 — QoS ablation (fast producer, 50 ms/message consumer)");
    out.push_str(&format!(
        "{:44} {:>10} {:>10} {:>14}\n",
        "policy", "delivered", "dropped", "max buffered"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:44} {:>10} {:>10} {:>13}B\n",
            r.policy, r.delivered, r.dropped, r.max_buffered
        ));
    }
    out
}

/// Renders the E6 scalability table.
pub fn render_e6(rows: &[DirectoryScaleRow]) -> String {
    let mut out = hr("E6 — directory federation scalability");
    out.push_str(&format!(
        "{:>10} {:>14} {:>14} {:>16}\n",
        "runtimes", "services/rt", "convergence", "registrations"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>14} {:>14} {:>16}\n",
            r.runtimes,
            r.per_runtime,
            r.convergence.to_string(),
            r.advertisements
        ));
    }
    out
}

/// Renders the E7 ablation.
pub fn render_e7(r: &ScatterResults) -> String {
    let mut out = hr("E7 — visibility ablation (aggregated vs scattered, §2.2.2)");
    out.push_str(&format!(
        "capture execution, aggregated origin          : {:>10}  (n={})\n",
        r.aggregated_capture.to_string(),
        r.samples.0
    ));
    out.push_str(&format!(
        "capture execution, scattered origin           : {:>10}  (n={})\n",
        r.scattered_capture.to_string(),
        r.samples.1
    ));
    out.push_str(&format!(
        "extra command hop under scattering (SOAP RT)  : {:>10}\n",
        r.scattered_command_rt.to_string()
    ));
    out.push_str(
        "(the bridge work is identical; scattering buys native-app access\n          at the price of one SOAP hop per command and one exporter per\n          native platform)\n",
    );
    out
}

/// Renders the E8 observability summary.
pub fn render_e8(r: &ObservabilityResults) -> String {
    let mut out = hr("E8 — observability (metrics registry + path spans)");
    out.push_str(&format!(
        "{:42} {:>7} {:>12} {:>12} {:>12}\n",
        "histogram", "count", "mean", "min", "max"
    ));
    for (name, h) in &r.snapshot.histograms {
        out.push_str(&format!(
            "{:42} {:>7} {:>12} {:>12} {:>12}\n",
            name,
            h.count(),
            h.mean().to_string(),
            h.min().to_string(),
            h.max().to_string()
        ));
    }
    out.push_str("\ncounters:\n");
    for (name, v) in &r.snapshot.counters {
        out.push_str(&format!("  {name:44} {v:>8}\n"));
    }
    out.push_str("\ngauges:\n");
    for (name, v) in &r.snapshot.gauges {
        out.push_str(&format!("  {name:44} {v:>8}\n"));
    }
    out.push_str(&format!(
        "\nspans recorded: {} (overwritten: {})\n",
        r.span_count, r.spans_overwritten
    ));
    out.push_str("one click, Bluetooth \u{2192} uMiddle \u{2192} UPnP, by correlation id:\n");
    for line in &r.sample_path {
        out.push_str(&format!("  {line}\n"));
    }
    if let Some(cp) = &r.critical_path {
        out.push('\n');
        out.push_str(&cp.render());
    }
    out.push_str(&format!(
        "\ntrace exports: perfetto {} B, folded stacks {} B \
         (write them with `bench trace`)\n",
        r.perfetto.len(),
        r.folded.len()
    ));
    out
}

/// Renders the E10 telemetry-plane fault-injection summary.
pub fn render_e10(r: &TelemetryFaultResults) -> String {
    use simnet::{SimDuration, SimTime};

    let t = |ns: u64| SimTime::from_nanos(ns).to_string();
    let d = |ns: u64| SimDuration::from_nanos(ns).to_string();
    let mut out = hr("E10 — telemetry plane: SLO burn-rate alerts + federation doctor");
    out.push_str(&format!(
        "faults injected at {} (upnp mapper removed, hub flooded)\n",
        r.fault_at
    ));
    out.push_str(&format!(
        "sampler: {} interval, {} samples\n\n",
        d(r.report.interval_ns),
        r.samples
    ));

    out.push_str("alerts:\n");
    for a in &r.report.alerts {
        out.push_str(&format!(
            "  {:20} {:28} {:>8}  since {:>10}  burn {:>6}/{:<6} milli\n",
            a.name,
            a.subject,
            a.state.as_str(),
            t(a.since_ns),
            a.burn_long_milli,
            a.burn_short_milli
        ));
    }
    out.push_str("transitions:\n");
    for tr in &r.transitions {
        out.push_str(&format!(
            "  {:>12}  {:20} {} -> {}\n",
            tr.at.to_string(),
            tr.objective,
            tr.from.as_str(),
            tr.to.as_str()
        ));
    }

    out.push_str("\nbridges:\n");
    for b in &r.report.bridges {
        out.push_str(&format!(
            "  {:14} last traffic {:>10}  idle {:>10}  {}\n",
            b.platform,
            t(b.last_traffic_ns),
            d(b.idle_ns),
            if b.silent { "SILENT" } else { "live" }
        ));
    }
    out.push_str("segments:\n");
    for s in &r.report.segments {
        out.push_str(&format!(
            "  {:28} util {:>4} milli  {:>8} frames  {:>4} dropped\n",
            s.label, s.utilization_milli, s.frames, s.dropped
        ));
    }
    out.push_str(&format!(
        "scheduler: {} events pending\n",
        r.report.events_pending
    ));

    out.push_str("\ntop offenders (doctor's ranking):\n");
    for o in &r.report.top_offenders {
        out.push_str(&format!(
            "  {:>6} milli  {:14} {:20} {}\n",
            o.severity_milli, o.kind, o.name, o.subject
        ));
    }
    out.push_str(&format!(
        "\nexports: doctor JSON {} B, OpenMetrics {} B \
         (write them with `bench doctor`)\n",
        r.doctor_json.len(),
        r.open_metrics.len()
    ));
    out
}

/// Renders E11, the incident evidence of the E13 run: the trigger
/// plane's incident bundles, the bundled click journey's coverage and
/// the doctor's final verdict.
pub fn render_e11(r: &AttributionResults) -> String {
    let mut out = hr("E11 — incident bundles: the E13 fault run's flight recorder");
    out.push_str("incident bundles:\n");
    for b in &r.bundles {
        out.push_str(&format!(
            "  #{} {:>12}  {:?}: {}\n",
            b.seq,
            b.at.to_string(),
            b.kind,
            b.detail
        ));
    }
    out.push_str(&format!(
        "bundled click journey: corr {:#x}, {} span(s), critical-path coverage {:.1}%\n",
        r.exemplar_corr,
        r.exemplar_journey.len(),
        r.journey_coverage * 100.0
    ));
    out.push_str(&format!(
        "doctor's top offender: {}\n",
        r.report
            .top_offenders
            .first()
            .map_or("(none)", |o| o.subject.as_str())
    ));
    out.push_str(&format!(
        "exports: incident bundle JSON {} B, doctor JSON {} B \
         (write them with `bench incident`)\n",
        r.bundles
            .first()
            .map_or(0, |b| b.to_json().document().len()),
        r.report.to_json().document().len()
    ));
    out
}

/// Renders the E13 attribution run: the time decomposition on both
/// sides of the fault, the differential doctor's ranked verdict, and
/// the exemplar's resolution into the incident bundle.
pub fn render_e13(r: &AttributionResults) -> String {
    let mut out = hr("E13 — latency attribution: time decomposition + differential doctor");
    out.push_str(&format!(
        "snapshots: healthy at {} ns ({} spans folded), degraded at {} ns ({} spans folded, {} lost)\n",
        r.before.at_ns, r.before.spans_folded, r.after.at_ns, r.after.spans_folded, r.after.spans_lost
    ));
    out.push_str(&format!(
        "{:28} {:>16} {:>16} {:>8}\n",
        "component", "self ns", "queue ns", "spans"
    ));
    for (name, c) in &r.after.components {
        out.push_str(&format!(
            "{:28} {:>16} {:>16} {:>8}\n",
            name, c.self_ns, c.queue_ns, c.spans
        ));
    }
    out.push('\n');
    out.push_str(&r.diff_text);
    out.push_str(&format!(
        "\nexemplar: corr {:#x} past the 20 ms SLO threshold resolves to {} span(s) \
         in the incident bundle ({} bundle(s) captured)\n",
        r.exemplar_corr,
        r.exemplar_journey.len(),
        r.bundles.len()
    ));
    out.push_str("annotated offenders:\n");
    for o in &r.report.top_offenders {
        out.push_str(&format!(
            "  {:>6} milli  {:14} {:20} {:34} {}\n",
            o.severity_milli,
            o.kind,
            o.subject,
            o.dominant,
            if o.exemplar_corr != 0 {
                format!("corr {:#x}", o.exemplar_corr)
            } else {
                String::new()
            }
        ));
    }
    out.push_str(&format!(
        "exports: attribution JSON {} B, diff JSON {} B \
         (write them with `bench attrib`)\n",
        r.attrib_json.len(),
        r.diff_json.len()
    ));
    out
}

/// Renders the E9 scheduler-scaling sweep.
pub fn render_e9(rows: &[SchedScaleRow]) -> String {
    let mut out = hr("E9 — scheduler scaling: six-bridge federation sweep");
    out.push_str(&format!(
        "{:>10} {:>12} {:>10} {:>14} {:>14} {:>12}\n",
        "devices", "events", "wall s", "events/s", "p99 disp ns", "allocs/ev"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>12} {:>10.2} {:>14.0} {:>14} {:>12.3}\n",
            r.devices,
            r.events,
            r.wall_secs,
            r.events_per_sec,
            r.p99_dispatch_ns,
            r.allocs_per_event
        ));
    }
    out
}

/// Renders the E9b busy-deferral sweep table.
pub fn render_e9b(rows: &[DeferralRow]) -> String {
    let mut out = hr("E9b — busy deferral under bursty fan-in");
    out.push_str(&format!(
        "{:>10} {:>12} {:>16} {:>12}\n",
        "devices", "delivered", "delivered/s", "pops/dg"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>12} {:>16.0} {:>12.3}\n",
            r.devices, r.delivered, r.delivered_per_sec, r.pops_per_delivered
        ));
    }
    out
}
