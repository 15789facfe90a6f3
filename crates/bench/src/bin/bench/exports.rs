//! The deterministic exporters behind the `ci.sh` determinism gates:
//! `trace` (E8), `doctor` (E10), `incident` (E11, read from the E13
//! run), `attrib` (E13), `fidelity` (the paper pin) and `fingerprint`
//! (the kernel's dispatch order at scale). Each writes
//! byte-identical files across runs. With none of its output flags
//! given, an exporter writes its default set; with any, it writes only
//! those.

use bench::experiments::{
    dispatch_fingerprints, e10_telemetry_faults, e13_attribution, e1_service_level,
    e2_device_level, e3_transport_level, e5_ablation_qos, e8_observability,
};
use bench::report::write_artifact;
use bench::{out, outln};
use simnet::{Json, Layout};

use crate::{Args, Command};

/// The output paths for `flags`: the given ones, or every default when
/// none is given.
fn outputs<const N: usize>(args: &Args, flags: [(&str, Option<&str>); N]) -> [Option<String>; N] {
    let given = flags.map(|(flag, _)| args.opt(flag));
    if given.iter().any(Option::is_some) {
        given
    } else {
        flags.map(|(_, default)| default.map(str::to_owned))
    }
}

pub const TRACE: Command = Command {
    name: "trace",
    values: &["--perfetto", "--folded", "--json"],
    switches: &[],
    takes_args: false,
    usage: "trace [--perfetto FILE] [--folded FILE] [--json FILE]   \
            (default: E8_trace.perfetto.json E8_trace.folded)",
    run: trace,
};

/// E8: the Perfetto `trace_event` JSON (open in `ui.perfetto.dev`), the
/// folded-stack flamegraph file and the metrics snapshot, plus the
/// critical path of the bridged Bluetooth→UPnP journey on stdout.
fn trace(args: &Args) {
    let [perfetto, folded, json] = outputs(
        args,
        [
            ("--perfetto", Some("E8_trace.perfetto.json")),
            ("--folded", Some("E8_trace.folded")),
            ("--json", None),
        ],
    );
    let r = e8_observability();
    outln!(
        "E8 trace: {} spans recorded ({} overwritten)",
        r.span_count,
        r.spans_overwritten
    );
    match &r.critical_path {
        Some(cp) => out!("{}", cp.render()),
        None => outln!("no bridged path found"),
    }
    let snapshot = r.snapshot.to_json().document();
    for (path, body, what) in [
        (perfetto, &r.perfetto, "open in ui.perfetto.dev"),
        (folded, &r.folded, "feed to a flamegraph renderer"),
        (json, &snapshot, "metrics snapshot"),
    ] {
        if let Some(path) = path {
            write_artifact(&path, body, what);
        }
    }
}

pub const DOCTOR: Command = Command {
    name: "doctor",
    values: &["--doctor", "--openmetrics"],
    switches: &[],
    takes_args: false,
    usage: "doctor [--doctor FILE] [--openmetrics FILE]   \
            (default: artifacts/E10_doctor.json artifacts/E10_metrics.om)",
    run: doctor,
};

/// E10: the federation doctor's health report and the final metrics
/// snapshot as OpenMetrics text, plus the alert and offender summary.
fn doctor(args: &Args) {
    let [doctor, om] = outputs(
        args,
        [
            ("--doctor", Some("artifacts/E10_doctor.json")),
            ("--openmetrics", Some("artifacts/E10_metrics.om")),
        ],
    );
    let r = e10_telemetry_faults();
    outln!(
        "E10 doctor: {} samples, {} alert transitions",
        r.samples,
        r.transitions.len()
    );
    for a in &r.report.alerts {
        outln!("  {:20} {:28} {}", a.name, a.subject, a.state.as_str());
    }
    for o in &r.report.top_offenders {
        outln!(
            "  offender: {:>6} milli  {:14} {}",
            o.severity_milli,
            o.kind,
            o.subject
        );
    }
    for (path, body, what) in [
        (doctor, &r.doctor_json, "doctor report"),
        (om, &r.open_metrics, "OpenMetrics text format"),
    ] {
        if let Some(path) = path {
            write_artifact(&path, body, what);
        }
    }
}

pub const INCIDENT: Command = Command {
    name: "incident",
    values: &["--bundle", "--doctor"],
    switches: &[],
    takes_args: false,
    usage: "incident [--bundle FILE] [--doctor FILE]   \
            (default: artifacts/E11_incident.json artifacts/E11_doctor.json)",
    run: incident,
};

/// E11: the first incident bundle the E13 run's trigger plane captured
/// and that run's final doctor report, plus a journey and trigger
/// summary.
fn incident(args: &Args) {
    let [bundle, doctor] = outputs(
        args,
        [
            ("--bundle", Some("artifacts/E11_incident.json")),
            ("--doctor", Some("artifacts/E11_doctor.json")),
        ],
    );
    let r = e13_attribution();
    outln!(
        "E11 incident: exemplar journey {} span(s), coverage {:.1}%",
        r.exemplar_journey.len(),
        r.journey_coverage * 100.0
    );
    for b in &r.bundles {
        outln!("  bundle: {:?} at {} ns", b.kind, b.at.as_nanos());
    }
    outln!(
        "  top offender: {}",
        r.report
            .top_offenders
            .first()
            .map_or("(none)", |o| o.subject.as_str())
    );
    let bundle_json = r
        .bundles
        .first()
        .map(|b| b.to_json().document())
        .unwrap_or_default();
    let doctor_json = r.report.to_json().document();
    for (path, body, what) in [
        (bundle, &bundle_json, "incident bundle"),
        (doctor, &doctor_json, "doctor report"),
    ] {
        if let Some(path) = path {
            write_artifact(&path, body, what);
        }
    }
}

pub const ATTRIB: Command = Command {
    name: "attrib",
    values: &["--attrib", "--diff", "--baseline"],
    switches: &[],
    takes_args: false,
    usage: "attrib [--attrib FILE] [--diff FILE] [--baseline FILE]   \
            (default: artifacts/E13_attrib.json artifacts/E13_attrib_diff.json \
            artifacts/E13_attrib_baseline.json)",
    run: attrib,
};

/// E13: the post-fault attribution snapshot, the differential doctor's
/// ranked diff, and the healthy-half baseline that `bench perf-sched
/// --check` diffs future runs against, plus the ranked verdict.
fn attrib(args: &Args) {
    let [attrib, diff, baseline] = outputs(
        args,
        [
            ("--attrib", Some("artifacts/E13_attrib.json")),
            ("--diff", Some("artifacts/E13_attrib_diff.json")),
            ("--baseline", Some("artifacts/E13_attrib_baseline.json")),
        ],
    );
    let r = e13_attribution();
    outln!(
        "E13 attribution: {} components, {} spans folded ({} lost), {} bundle(s)",
        r.after.components.len(),
        r.after.spans_folded,
        r.after.spans_lost,
        r.bundles.len()
    );
    out!("{}", r.diff_text);
    outln!(
        "exemplar corr {:#x} -> {} span(s) in the incident bundle",
        r.exemplar_corr,
        r.exemplar_journey.len()
    );
    for (path, body, what) in [
        (attrib, &r.attrib_json, "attribution snapshot"),
        (diff, &r.diff_json, "attribution diff"),
        (baseline, &r.before_json, "attribution baseline"),
    ] {
        if let Some(path) = path {
            write_artifact(&path, body, what);
        }
    }
}

pub const FIDELITY: Command = Command {
    name: "fidelity",
    values: &["--out"],
    switches: &[],
    takes_args: false,
    usage: "fidelity [--out FILE]   (default: artifacts/paper_fidelity.json)",
    run: fidelity,
};

/// E1 repetitions and E3 measurement window: the same as the
/// `experiments` harness, so the pinned numbers are the printed tables.
const E1_REPETITIONS: usize = 5;
const E3_MEASURE_SECS: u64 = 30;

/// Allowed relative deviation of an E3 row from the paper.
const E3_BAND: f64 = 0.10;
/// Allowed range of E2's uMiddle share of the SetPower latency.
const E2_SHARE_BAND: (f64, f64) = (0.03, 0.07);

/// Pins the paper reproduction: the simulated results of E1
/// (Figure 10), E2 (§5.2), E3 (Figure 11) and E5 (QoS ablation) as one
/// JSON document. Every number is simulated, so the checked-in copy is
/// a pin any change to simulated behaviour must regenerate on purpose.
///
/// Exits 1 when a band is missed: an E3 row outside ±10% of Figure 11
/// (7.9 / 6.2 / 3.2 / 2.9 Mbps), or E2's uMiddle share of the UPnP
/// SetPower latency outside 3%..7% (the paper's ~10 ms of ~160 ms).
fn fidelity(args: &Args) {
    let out = args.get("--out", "artifacts/paper_fidelity.json");
    let e1 = e1_service_level(E1_REPETITIONS);
    let e2 = e2_device_level();
    let e3 = e3_transport_level(E3_MEASURE_SECS);
    let e5 = e5_ablation_qos();

    let share = e2.upnp_umiddle_share.as_nanos() as f64 / e2.upnp_total.as_nanos() as f64;
    let e1_rows = e1.iter().map(|r| {
        Json::inline()
            .with("device", r.device.as_str())
            .with("mean_time_ns", r.mean_time.as_nanos())
            .with("rate_per_s", Json::fixed(r.rate_per_sec, 6))
            .with("paper_rate_per_s", Json::fixed(r.paper_rate, 1))
            .with("samples", r.samples)
    });
    let e3_rows = e3.iter().map(|r| {
        Json::inline()
            .with("test", r.test.as_str())
            .with("mbps", Json::fixed(r.mbps, 6))
            .with("paper_mbps", Json::fixed(r.paper_mbps, 1))
            .with("observed", r.observed)
    });
    let e5_rows = e5.iter().map(|r| {
        Json::inline()
            .with("policy", r.policy.as_str())
            .with("delivered", r.delivered)
            .with("dropped", r.dropped)
            .with("max_buffered_bytes", r.max_buffered)
    });
    let pin = Json::block()
        .with("name", "paper_fidelity")
        .with(
            "units",
            "durations: simulated ns; rates: per simulated second; \
             throughput: Mbps of simulated goodput; counts: messages or bytes",
        )
        .with(
            "e1",
            Json::inline()
                .with("repetitions", E1_REPETITIONS)
                .with("rows", Json::array(Layout::Block, e1_rows)),
        )
        .with(
            "e2",
            Json::inline()
                .with("upnp_total_ns", e2.upnp_total.as_nanos())
                .with("upnp_umiddle_share_ns", e2.upnp_umiddle_share.as_nanos())
                .with("upnp_umiddle_share", Json::fixed(share, 6))
                .with("upnp_samples", e2.upnp_samples)
                .with("mouse_translation_ns", e2.mouse_translation.as_nanos())
                .with("mouse_samples", e2.mouse_samples),
        )
        .with(
            "e3",
            Json::inline()
                .with("measure_s", E3_MEASURE_SECS)
                .with("rows", Json::array(Layout::Block, e3_rows)),
        )
        .with(
            "e5",
            Json::inline().with("rows", Json::array(Layout::Block, e5_rows)),
        );
    write_artifact(&out, &pin.document(), "paper fidelity pin (E1, E2, E3, E5)");

    let mut misses = Vec::new();
    for r in &e3 {
        let dev = (r.mbps - r.paper_mbps) / r.paper_mbps;
        outln!(
            "E3 {:14} {:6.2} Mbps vs paper {:.1} ({:+.1}%)",
            r.test,
            r.mbps,
            r.paper_mbps,
            dev * 100.0
        );
        if dev.abs() > E3_BAND {
            misses.push(format!(
                "E3 {} at {:.2} Mbps is outside ±{:.0}% of the paper's {:.1}",
                r.test,
                r.mbps,
                E3_BAND * 100.0,
                r.paper_mbps
            ));
        }
    }
    outln!(
        "E2 uMiddle share of SetPower latency: {:.1}%",
        share * 100.0
    );
    if !(E2_SHARE_BAND.0..=E2_SHARE_BAND.1).contains(&share) {
        misses.push(format!(
            "E2 uMiddle share {:.1}% is outside {:.0}%..{:.0}%",
            share * 100.0,
            E2_SHARE_BAND.0 * 100.0,
            E2_SHARE_BAND.1 * 100.0
        ));
    }
    if !misses.is_empty() {
        for m in &misses {
            eprintln!("fidelity band missed: {m}");
        }
        std::process::exit(1);
    }
    outln!("fidelity bands: ok");
}

pub const FINGERPRINT: Command = Command {
    name: "fingerprint",
    values: &["--out"],
    switches: &[],
    takes_args: false,
    usage: "fingerprint [--out FILE]   (default: artifacts/dispatch_fingerprints.json)",
    run: fingerprint,
};

/// Pins the kernel's dispatch order at scale: each fixture of
/// [`dispatch_fingerprints`] (E9 at 1000 devices, E12 with churn, the
/// Figure 11 RMI-MB path, and the E10 world, whose multicast frames
/// reach one member) with its fingerprint and handler-call count
/// over a fixed virtual span. A kernel change may move event counts
/// freely; one that moves a fingerprint changed which handler ran when.
fn fingerprint(args: &Args) {
    let out = args.get("--out", "artifacts/dispatch_fingerprints.json");
    let rows = dispatch_fingerprints();
    for r in &rows {
        outln!(
            "{:20} {:>4} virtual s  {:#018x}  {:>10} handler calls",
            r.fixture,
            r.virtual_secs,
            r.fingerprint,
            r.handler_calls
        );
    }
    let rows = rows.iter().map(|r| {
        Json::inline()
            .with("fixture", r.fixture)
            .with("virtual_s", r.virtual_secs)
            .with("fingerprint", format!("{:#018x}", r.fingerprint))
            .with("handler_calls", r.handler_calls)
    });
    let pin = Json::block()
        .with("name", "dispatch_fingerprints")
        .with(
            "units",
            "virtual_s: simulated seconds run from t = 0; fingerprint: 64-bit hash of \
             every handler call's (instant, process, callback kind, delivery identity) \
             in dispatch order; handler_calls: count",
        )
        .with("rows", Json::array(Layout::Block, rows));
    write_artifact(&out, &pin.document(), "dispatch fingerprint pin");
}
