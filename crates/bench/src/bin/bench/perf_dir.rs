//! `bench perf-dir`: directory-federation benchmarks — the E12
//! delta-gossip federation (steady-state directory-plane bytes,
//! post-churn convergence) and the E12 federation-lookup
//! microbenchmark at the ~1M-advertised-port scale point.
//!
//! `--check` is the CI gate — a pin on the delta steady-state bytes, a
//! post-churn convergence ceiling, a lookup p99 budget, and the
//! scan-free invariant (no port query falls back to a full table scan
//! at any table size). `--json FILE` writes the sweep as
//! deterministic-schema JSON (byte counts and convergence are
//! simulator-deterministic; lookup timings are wall-clock and
//! machine-dependent, the schema is what golden files assert on). The
//! committed `BENCH_perf_dir.json` records one full run; its `before`
//! side is the retired full-refresh protocol's row, frozen.
//!
//! Gate knob (`ci.sh` forwards it from `PERF_DIR_P99_US`):
//!
//! * `--p99-budget-us N` — lookup p99 budget in µs (default 200).

use bench::experiments::{e12_delta_gossip, e12_lookup_scale, DeltaGossipRow};
use simnet::Json;

use crate::{Args, Command};

/// `--check` pin on the delta steady-state directory-plane bytes at the
/// check fixture (40 runtimes x 5 services, 60 s). Simulator-
/// deterministic, so any change is a protocol change, not noise. The
/// retired full-refresh protocol sent 189,000 B on the same fixture.
const CHECK_STEADY_BYTES: u64 = 14_880;

/// The retired full-refresh protocol's E12 row at 100 x 10, measured at
/// commit 7b03dcf (the last with that protocol) and written verbatim as
/// the record's frozen `before` side.
const FROZEN_FULL_REFRESH_ROW: &str = r#"{"mode": "full-refresh", "runtimes": 100, "per_runtime": 10, "bootstrap_bytes": 8128180, "steady_bytes": 946800, "steady_secs": 60, "join_convergence_ms": 0, "leave_convergence_ms": 192, "deltas_applied": 0, "antientropy_repairs": 0, "final_entries": 1000}"#;

/// The record's `units` line.
const UNITS: &str = "*_bytes: directory-plane bytes over the named window (virtual time, \
    simulator-deterministic); steady_secs: virtual seconds; *_convergence_ms: milliseconds of \
    virtual time, worst runtime; deltas_applied/antientropy_repairs/final_entries/total_ports/\
    distinct_mimes/lookups/scan_fallbacks: counts; steady_bytes_ratio: dimensionless; build_ms: \
    wall-clock milliseconds; avg_ns/p99_ns: wall-clock nanoseconds per lookup";

/// The record's `description`, ending in the command that regenerates
/// it.
const DESCRIPTION: &str =
    "E12 directory-federation A/B (DESIGN.md delta-gossip plane, EXPERIMENTS.md E12): 100 \
    runtimes x 10 services on the 10 Mbps hub, 60 virtual seconds of steady state, then one \
    join/leave churn cycle. 'before' is the retired full-refresh protocol (every entry \
    re-advertised every interval, TTL liveness), frozen: that protocol no longer exists, so \
    the row is copied, not rerun; 'after' is delta-gossip (version-vectored deltas, digest \
    anti-entropy, origin-level liveness) plus the federation lookup microbenchmark at 1M \
    advertised ports. Byte counts and convergence are simulator-deterministic; \
    steady_bytes_ratio divides the frozen full-refresh steady_bytes by the fresh delta one; \
    lookup timings are wall-clock and machine-dependent. Regenerate with: cargo run \
    --offline --release -p bench -- perf-dir --json BENCH_perf_dir.json";

/// `steady_bytes` of [`FROZEN_FULL_REFRESH_ROW`].
const FROZEN_FULL_REFRESH_STEADY_BYTES: u64 = 946_800;

/// Where the frozen row came from, written next to it.
const FROZEN_PROVENANCE: &str =
    "measured at commit 7b03dcf, the last commit with the full-refresh protocol; not rerun";

/// Default `--p99-budget-us`: ceiling on the p99 wall cost of one
/// indexed federation lookup at the check fixture (100k ports).
/// Measured p99 is a few µs; 200 µs keeps the gate insensitive to CI
/// scheduling jitter while still catching an O(table) scan sneaking
/// back into the lookup path.
const DEFAULT_P99_BUDGET_US: u64 = 200;

/// `--check` ceiling on post-churn convergence (worst runtime, ms of
/// virtual time). Deltas propagate in one multicast (~ms); the bound
/// allows one anti-entropy round trip (digest interval + request) for
/// runtimes that missed the delta.
const CHECK_CONVERGENCE_MS: u64 = 5_000;

/// Federation shape of the `--check` A/B (full runs use 100 x 10).
const CHECK_RUNTIMES: usize = 40;
const CHECK_PER_RUNTIME: usize = 5;

/// Lookup-table shape of the `--check` gate (full runs use
/// 10 000 x 100 = 1M ports).
const CHECK_LOOKUP_PROFILES: usize = 2_000;
const CHECK_LOOKUP_PORTS: usize = 50;

pub const COMMAND: Command = Command {
    name: "perf-dir",
    values: &["--json", "--p99-budget-us"],
    switches: &["--check"],
    takes_args: false,
    usage: "perf-dir [--check] [--json FILE] [--p99-budget-us N]",
    run,
};

fn render(r: &DeltaGossipRow) -> String {
    format!(
        "E12 delta-gossip directory federation (directory-plane bytes, virtual time)\n\
         runtimes  ports  boot KiB  steady KiB  join-conv ms  leave-conv ms  deltas  repairs\n\
         {:>8} {:>6} {:>9.1} {:>11.1} {:>13} {:>14} {:>7} {:>8}\n",
        r.runtimes,
        r.final_entries,
        r.bootstrap_bytes as f64 / 1024.0,
        r.steady_bytes as f64 / 1024.0,
        r.join_convergence_ms,
        r.leave_convergence_ms,
        r.deltas_applied,
        r.antientropy_repairs,
    )
}

/// The frozen full-refresh/delta steady-state bytes ratio — the
/// record's headline.
fn steady_ratio(row: &DeltaGossipRow) -> f64 {
    FROZEN_FULL_REFRESH_STEADY_BYTES as f64 / row.steady_bytes.max(1) as f64
}

fn run(args: &Args) {
    let p99_budget_ns = args.get("--p99-budget-us", DEFAULT_P99_BUDGET_US) * 1_000;

    if args.switch("--check") {
        // The steady-state directory plane must stay exactly as cheap
        // as pinned, and churn must still converge everywhere within
        // the anti-entropy bound.
        let row = e12_delta_gossip(CHECK_RUNTIMES, CHECK_PER_RUNTIME);
        assert_eq!(
            row.steady_bytes, CHECK_STEADY_BYTES,
            "delta steady-state bytes over {} s moved from the pin",
            row.steady_secs
        );
        assert!(
            row.join_convergence_ms <= CHECK_CONVERGENCE_MS
                && row.leave_convergence_ms <= CHECK_CONVERGENCE_MS,
            "churn convergence over bound: join {} ms / leave {} ms > {} ms",
            row.join_convergence_ms,
            row.leave_convergence_ms,
            CHECK_CONVERGENCE_MS
        );

        // Lookup plane: p99 within budget and zero scan fallbacks —
        // the index must answer every port query at any table size.
        let lk = e12_lookup_scale(CHECK_LOOKUP_PROFILES, CHECK_LOOKUP_PORTS);
        assert!(
            lk.p99_ns <= p99_budget_ns,
            "lookup p99 at {} ports over budget: {} ns > {} ns",
            lk.total_ports,
            lk.p99_ns,
            p99_budget_ns
        );
        assert_eq!(
            lk.scan_fallbacks, 0,
            "port queries fell back to a full table scan {} time(s)",
            lk.scan_fallbacks
        );

        println!(
            "bench perf-dir --check: ok (steady bytes {} B == pin at {} runtimes, \
             join conv {} ms / leave conv {} ms <= {} ms, lookup p99 {} ns <= {} ns at {} ports, \
             0 scan fallbacks)",
            row.steady_bytes,
            CHECK_RUNTIMES,
            row.join_convergence_ms,
            row.leave_convergence_ms,
            CHECK_CONVERGENCE_MS,
            lk.p99_ns,
            p99_budget_ns,
            lk.total_ports
        );
        return;
    }

    let row = e12_delta_gossip(100, 10);
    println!("{}", render(&row));
    println!(
        "steady-state bytes ratio (frozen full-refresh / delta): x{:.1}\n",
        steady_ratio(&row)
    );

    let lk = e12_lookup_scale(10_000, 100);
    println!("E12 federation lookup at scale (wall clock)");
    println!(
        "{} profiles x {} ports = {} advertised ports over {} MIME types, built in {:.0} ms",
        lk.profiles, lk.ports_per_profile, lk.total_ports, lk.distinct_mimes, lk.build_ms
    );
    println!(
        "{} indexed lookups: avg {} ns, p99 {} ns, scan fallbacks {}",
        lk.lookups, lk.avg_ns, lk.p99_ns, lk.scan_fallbacks
    );

    if let Some(file) = args.opt("--json") {
        let frozen = Json::parse(FROZEN_FULL_REFRESH_ROW).expect("frozen row is JSON");
        let gossip_row = Json::inline()
            .with("mode", "delta")
            .with("runtimes", row.runtimes)
            .with("per_runtime", row.per_runtime)
            .with("bootstrap_bytes", row.bootstrap_bytes)
            .with("steady_bytes", row.steady_bytes)
            .with("steady_secs", row.steady_secs)
            .with("join_convergence_ms", row.join_convergence_ms)
            .with("leave_convergence_ms", row.leave_convergence_ms)
            .with("deltas_applied", row.deltas_applied)
            .with("antientropy_repairs", row.antientropy_repairs)
            .with("final_entries", row.final_entries);
        let lookup = Json::inline()
            .with("profiles", lk.profiles)
            .with("ports_per_profile", lk.ports_per_profile)
            .with("total_ports", lk.total_ports)
            .with("distinct_mimes", lk.distinct_mimes)
            .with("build_ms", Json::fixed(lk.build_ms, 0))
            .with("lookups", lk.lookups)
            .with("avg_ns", lk.avg_ns)
            .with("p99_ns", lk.p99_ns)
            .with("scan_fallbacks", lk.scan_fallbacks);
        let record = Json::block()
            .with("name", "perf_dir")
            .with("units", UNITS)
            .with("description", DESCRIPTION)
            .with(
                "machine",
                "linux x86_64 container (shared); only e12_lookup_scale and build_ms depend on the host",
            )
            .with(
                "before",
                Json::block()
                    .with("e12_delta_gossip", frozen)
                    .with("provenance", FROZEN_PROVENANCE),
            )
            .with(
                "after",
                Json::block()
                    .with("e12_delta_gossip", gossip_row)
                    .with("steady_bytes_ratio", Json::fixed(steady_ratio(&row), 1))
                    .with("e12_lookup_scale", lookup),
            );
        bench::report::write_artifact(&file, &record.document(), "directory-federation sweep");
    }
}
