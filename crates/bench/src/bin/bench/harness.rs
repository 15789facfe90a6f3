//! `bench experiments`: runs the experiments and prints the
//! paper-vs-measured tables. Experiment ids (`e1 e3 ...`) pick a
//! subset; `e9` (a reduced scheduler sweep) only runs when named.
//! `--json FILE` also writes the `BENCH_observability.json` record
//! after E8: the E11 trace-loss A/B and the E13 attribution-overhead
//! A/B as before/after, with the E8 metrics snapshot under `after`.

use bench::experiments::*;
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
        ("e11", &|| render_e11(&e11_sharded_incident())),
        ("e13", &|| render_e13(&e13_attribution())),
    ];
    println!("uMiddle evaluation harness (simulated testbed)");
    for (id, run) in experiments {
        if want(id) {
            println!("{}", run());
        }
    }
    // Only when named: a reduced version of the full `bench perf-sched
    // --json` sweep, which also covers N = 500 and N = 1000.
    if ids.iter().any(|a| a == "e9") {
        let rows = e9_sched_scale(&[100, 250], SimDuration::from_secs(10));
        println!("{}", render_e9(&rows));
    }
}

/// The `BENCH_observability.json` record. It carries the `bench lint`
/// key convention (name/before/after/units); the before/after
/// comparison is the trace-loss A/B (drop-on-full vs flight recorder)
/// plus the attribution-overhead A/B on the E9b busy-sink fixture
/// (telemetry alone vs telemetry + attribution fold).
fn observability_record(r: &ObservabilityResults) -> Json {
    let (drop_side, ring_side) = e11_trace_loss_ab();
    let loss = |s: &TraceLossSide| {
        Json::inline()
            .with("mode", s.mode)
            .with("retained", s.retained)
            .with("lost", s.lost)
            .with("tail_survives", s.tail_survives)
    };
    let attrib_ratio = e13_attrib_overhead(1000, SimDuration::from_secs(2), 3);
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
                .with("trace_loss", loss(&drop_side))
                .with("attrib", attrib("attribution-off", 1.0)),
        )
        .with(
            "after",
            Json::block()
                .with("trace_loss", loss(&ring_side))
                .with(
                    "attrib",
                    attrib("attribution-on", attrib_ratio)
                        .with("budget_ratio", Json::fixed(1.03, 2)),
                )
                .with("snapshot", r.snapshot.to_json()),
        )
}
