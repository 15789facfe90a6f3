//! `bench experiments`: runs the experiments and prints the
//! paper-vs-measured tables. Experiment ids (`e1 e3 ...`) pick a
//! subset; `e9` (a reduced scheduler sweep) only runs when named.
//! `--json FILE` also writes the `BENCH_observability.json` record
//! after E8: the frozen E11 trace-loss A/B and the E13
//! attribution-overhead A/B as before/after, with the E8 metrics
//! snapshot under `after`. E11 and E13 render one shared E13 run.

use bench::experiments::*;
use bench::outln;
use bench::report::*;
use simnet::{Json, SimDuration};

use crate::{Args, Command};

pub const COMMAND: Command = Command {
    name: "experiments",
    values: &["--json"],
    switches: &[],
    takes_args: true,
    usage: "experiments [e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e13]... [--json FILE]",
    run,
};

fn run(args: &Args) {
    let ids = &args.rest;
    let want = |id: &str| ids.is_empty() || ids.iter().any(|a| a == id);
    let e8 = || {
        let r = e8_observability();
        if let Some(path) = args.opt("--json") {
            // No trailing newline: the file is the checked-in record.
            let record = observability_record(&r).to_string();
            write_artifact(&path, &record, "observability record");
        }
        render_e8(&r)
    };
    let e13 = std::cell::OnceCell::new();
    let e13 = || e13.get_or_init(e13_attribution);
    let experiments: [(&str, &dyn Fn() -> String); 11] = [
        ("e1", &|| render_e1(&e1_service_level(5))),
        ("e2", &|| render_e2(&e2_device_level())),
        ("e3", &|| render_e3(&e3_transport_level(30))),
        ("e4", &|| render_e4(&e4_ablation_translation())),
        ("e5", &|| render_e5(&e5_ablation_qos())),
        ("e6", &|| render_e6(&e6_directory_scale(&[2, 4, 8, 12], 4))),
        ("e7", &|| render_e7(&e7_ablation_scatter())),
        ("e8", &e8),
        ("e10", &|| render_e10(&e10_telemetry_faults())),
        ("e11", &|| render_e11(e13())),
        ("e13", &|| render_e13(e13())),
    ];
    outln!("uMiddle evaluation harness (simulated testbed)");
    for (id, run) in experiments {
        if want(id) {
            outln!("{}", run());
        }
    }
    // Only when named: a reduced version of the full `bench perf-sched
    // --json` sweep, which also covers N = 500 and N = 1000.
    if ids.iter().any(|a| a == "e9") {
        let rows = e9_sched_scale(&[100, 250], SimDuration::from_secs(10));
        outln!("{}", render_e9(&rows));
    }
}

/// The E11 trace-loss A/B at equal span capacity (256) on a two-hop
/// mouse→light federation over 20 virtual seconds: drop-on-full kept
/// the head of the run and lost its tail, the ring journal kept the
/// tail. Measured at commit 0544d2b, the last commit with the
/// drop-on-full mode, and written verbatim as the record's frozen
/// `trace_loss` rows; the ring is now the only mode, so the A/B is not
/// rerun.
const FROZEN_TRACE_LOSS_ROWS: [&str; 2] = [
    r#"{"mode": "drop-on-full", "retained": 256, "lost": 2900, "tail_survives": false}"#,
    r#"{"mode": "flight-recorder", "retained": 212, "lost": 2944, "tail_survives": true}"#,
];

/// The `BENCH_observability.json` record. It carries the `bench lint`
/// key convention (name/before/after/units); the before/after
/// comparison is the frozen trace-loss A/B ([`FROZEN_TRACE_LOSS_ROWS`])
/// plus the attribution-overhead A/B on the E9 federation (telemetry
/// alone vs telemetry + attribution fold).
fn observability_record(r: &ObservabilityResults) -> Json {
    let [drop_side, ring_side] =
        FROZEN_TRACE_LOSS_ROWS.map(|row| Json::parse(row).expect("frozen row is JSON"));
    let (window, slices) = OVERHEAD_WINDOW;
    let attrib_ratio = e13_attrib_overhead(1000, window, slices);
    let attrib = |mode: &str, ratio: f64| {
        Json::inline()
            .with("mode", mode)
            .with("overhead_ratio", Json::fixed(ratio, 3))
    };
    Json::block()
        .with("name", "observability")
        .with(
            "units",
            "counters/gauges: dimensionless totals; histograms: event counts per bucket; \
             bucket_bounds_ns: nanoseconds; trace_loss: span records at equal trace capacity; \
             attrib: wall-clock overhead ratio at N=1000",
        )
        .with(
            "before",
            Json::block()
                .with("trace_loss", drop_side)
                .with("attrib", attrib("attribution-off", 1.0)),
        )
        .with(
            "after",
            Json::block()
                .with("trace_loss", ring_side)
                .with(
                    "attrib",
                    attrib("attribution-on", attrib_ratio)
                        .with("budget_ratio", Json::fixed(1.03, 2)),
                )
                .with("snapshot", r.snapshot.to_json()),
        )
}
