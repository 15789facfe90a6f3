//! Directory-federation benchmarks: the E12 delta-gossip federation
//! (steady-state directory-plane bytes, post-churn convergence) and the
//! E12 federation-lookup microbenchmark at the ~1M-advertised-port
//! scale point.
//!
//! Run with `--check` for the CI gate — a pin on the delta steady-state
//! bytes, a post-churn convergence ceiling, a lookup p99 budget, and the
//! scan-free invariant (no port query falls back to a full table scan at
//! any table size) — or with `--json FILE` to write the sweep as
//! deterministic-schema JSON (byte counts and convergence are
//! simulator-deterministic; lookup timings are wall-clock and
//! machine-dependent, the schema is what golden files assert on). The
//! committed `BENCH_perf_dir.json` records one full run; its `before`
//! side is the retired full-refresh protocol's row, frozen.
//!
//! Tunable gate knob (also settable from ci.sh):
//!
//! * `--p99-budget-us N` — lookup p99 budget in µs (default 200;
//!   `PERF_DIR_P99_US` env).

use bench::experiments::{e12_delta_gossip, e12_lookup_scale, DeltaGossipRow};

/// `--check` pin on the delta steady-state directory-plane bytes at the
/// check fixture (40 runtimes x 5 services, 60 s). Simulator-
/// deterministic, so any change is a protocol change, not noise. The
/// retired full-refresh protocol sent 189,000 B on the same fixture.
const CHECK_STEADY_BYTES: u64 = 14_880;

/// The retired full-refresh protocol's E12 row at 100 x 10, measured at
/// commit 7b03dcf (the last with that protocol) and written verbatim as
/// the record's frozen `before` side.
const FROZEN_FULL_REFRESH_ROW: &str = r#"{"mode": "full-refresh", "runtimes": 100, "per_runtime": 10, "bootstrap_bytes": 8128180, "steady_bytes": 946800, "steady_secs": 60, "join_convergence_ms": 0, "leave_convergence_ms": 192, "deltas_applied": 0, "antientropy_repairs": 0, "final_entries": 1000}"#;

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

/// Parses `--flag value` from the argument list, falling back to a
/// default; panics with a usable message on a malformed value.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    let raw = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"));
    raw.parse()
        .unwrap_or_else(|_| panic!("{flag}: cannot parse {raw:?}"))
}

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let json_out = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned());
    // Budget priority: --p99-budget-us flag, then PERF_DIR_P99_US env,
    // then the default.
    let env_p99 = std::env::var("PERF_DIR_P99_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let p99_budget_us: u64 = flag_value(
        &args,
        "--p99-budget-us",
        env_p99.unwrap_or(DEFAULT_P99_BUDGET_US),
    );
    let p99_budget_ns = p99_budget_us * 1_000;

    if check {
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
            "perf_dir --check: ok (steady bytes {} B == pin at {} runtimes, \
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

    if let Some(file) = json_out {
        let gossip_row = |r: &DeltaGossipRow| {
            format!(
                "{{\"mode\": \"delta\", \"runtimes\": {}, \"per_runtime\": {}, \"bootstrap_bytes\": {}, \"steady_bytes\": {}, \"steady_secs\": {}, \"join_convergence_ms\": {}, \"leave_convergence_ms\": {}, \"deltas_applied\": {}, \"antientropy_repairs\": {}, \"final_entries\": {}}}",
                r.runtimes,
                r.per_runtime,
                r.bootstrap_bytes,
                r.steady_bytes,
                r.steady_secs,
                r.join_convergence_ms,
                r.leave_convergence_ms,
                r.deltas_applied,
                r.antientropy_repairs,
                r.final_entries,
            )
        };
        let mut out = String::from("{\n  \"name\": \"perf_dir\",\n");
        out.push_str(
            "  \"units\": \"*_bytes: directory-plane bytes over the named window (virtual time, simulator-deterministic); steady_secs: virtual seconds; *_convergence_ms: milliseconds of virtual time, worst runtime; deltas_applied/antientropy_repairs/final_entries/total_ports/distinct_mimes/lookups/scan_fallbacks: counts; steady_bytes_ratio: dimensionless; build_ms: wall-clock milliseconds; avg_ns/p99_ns: wall-clock nanoseconds per lookup\",\n",
        );
        out.push_str(
            "  \"description\": \"E12 directory-federation A/B (DESIGN.md delta-gossip plane, EXPERIMENTS.md E12): 100 runtimes x 10 services on the 10 Mbps hub, 60 virtual seconds of steady state, then one join/leave churn cycle. 'before' is the retired full-refresh protocol (every entry re-advertised every interval, TTL liveness), frozen: that protocol no longer exists, so the row is copied, not rerun; 'after' is delta-gossip (version-vectored deltas, digest anti-entropy, origin-level liveness) plus the federation lookup microbenchmark at 1M advertised ports. Byte counts and convergence are simulator-deterministic; steady_bytes_ratio divides the frozen full-refresh steady_bytes by the fresh delta one; lookup timings are wall-clock and machine-dependent. Regenerate with: cargo run --offline --release -p bench --bin perf_dir -- --json BENCH_perf_dir.json\",\n",
        );
        out.push_str(
            "  \"machine\": \"linux x86_64 container (shared); only e12_lookup_scale and build_ms depend on the host\",\n",
        );
        out.push_str(&format!(
            "  \"before\": {{\n    \"e12_delta_gossip\": {FROZEN_FULL_REFRESH_ROW},\n    \"provenance\": \"{FROZEN_PROVENANCE}\"\n  }},\n",
        ));
        out.push_str(&format!(
            "  \"after\": {{\n    \"e12_delta_gossip\": {},\n    \"steady_bytes_ratio\": {:.1},\n    \"e12_lookup_scale\": {{\"profiles\": {}, \"ports_per_profile\": {}, \"total_ports\": {}, \"distinct_mimes\": {}, \"build_ms\": {:.0}, \"lookups\": {}, \"avg_ns\": {}, \"p99_ns\": {}, \"scan_fallbacks\": {}}}\n  }}\n}}\n",
            gossip_row(&row),
            steady_ratio(&row),
            lk.profiles,
            lk.ports_per_profile,
            lk.total_ports,
            lk.distinct_mimes,
            lk.build_ms,
            lk.lookups,
            lk.avg_ns,
            lk.p99_ns,
            lk.scan_fallbacks
        ));
        std::fs::write(&file, out).expect("write perf_dir json");
        println!("wrote {file}");
    }
}
