//! `bench perf-sched`: scheduler benchmarks — the timer-wheel kernel
//! A/B against the reference min-heap, the E9 six-bridge federation
//! scaling sweep (events/sec, p99 dispatch latency, allocations/event),
//! the E9b busy-deferral sweep (scheduler pops per delivered datagram
//! under bursty fan-in into a busy sink), and the E9c sharded-execution
//! scaling curve (events/sec, p99 dispatch, barrier stall per shard
//! count).
//!
//! `--check` is the CI scaling-regression gate: an events/sec floor at
//! N = 1000, a near-linearity bound on the per-event wall cost from
//! N = 100 to N = 1000, a p99 dispatch-latency budget, a bound on E9b
//! scheduler pops per delivered datagram (flat in burst size), ceilings
//! on the telemetry sampler's, the flight recorder's and the
//! attribution plane's overhead at N = 1000, the differential perf
//! doctor (the E13 attribution run diffed against its checked-in
//! baseline), and a shard-scaling floor at 4 shards / N = 10 000.
//! `--json FILE` writes the sweep as deterministic-schema JSON (values
//! are wall-clock and machine-dependent; the schema is what golden
//! files assert on).
//!
//! Gate knobs (`ci.sh` forwards each from its environment):
//!
//! * `--floor-evps N` — events/sec floor at N = 1000 (default 50000).
//! * `--p99-budget-us N` — p99 dispatch budget in µs (default 200).
//! * `--recorder-overhead X` — ceiling on the always-on flight
//!   recorder's wall-clock ratio at N = 1000 (default 1.03).
//! * `--attrib-overhead X` — ceiling on the attribution plane's
//!   wall-clock ratio at N = 1000 (default 1.03).
//! * `--attrib-baseline FILE` — checked-in attribution baseline the
//!   differential perf doctor diffs the current E13 run against
//!   (default `artifacts/E13_attrib_baseline.json`). An absent file
//!   skips the doctor; a file that does not parse fails the check. A
//!   positive delta fails the check *naming the regressed component*;
//!   regenerate the baseline with `bench attrib` when the change is
//!   intentional.
//! * `--shard-speedup X` — E9c 4-shard wall-time speedup floor: the
//!   1-shard run's wall seconds over the 4-shard run's, for the same
//!   virtual span (default 1.5). Automatically *not enforced* when the
//!   host exposes fewer than 4 cores — a 4-way shard run cannot beat
//!   single-threaded execution without 4 cores to run on (the sweep
//!   still runs as a smoke test and its numbers are printed).
//! * `--e9c-devices N` — E9c federation size in full (non-check) runs
//!   (default 10000; 100000 reproduces the large point, at ~10x the
//!   wall time).

use bench::experiments::{
    e10_sampler_overhead, e11_recorder_overhead, e13_attrib_overhead, e13_attribution,
    e9_sched_scale, e9b_deferral_sweep, e9c_shard_scale,
};
use bench::report::{render_e9, render_e9b, render_e9c};
use bench::timing::sched_kernel;
use simnet::{Json, Layout, SimDuration};

use crate::{Args, Command};

/// Default `--floor-evps`: events/sec floor at N = 1000. The engine
/// measures well above 10x this on a developer laptop and ~5x in CI
/// containers; the old linear-scan dispatch path sat below it.
const DEFAULT_FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// Default `--p99-budget-us`: ceiling on the p99 wall cost of one
/// dispatched event at N = 1000. Measured p99 is ~1 µs; 200 µs keeps
/// the gate insensitive to CI scheduling jitter while still catching
/// an O(N) term sneaking back into the dispatch path.
const DEFAULT_P99_BUDGET_US: u64 = 200;

/// `--check` bound on per-event wall-cost growth across a 10x device
/// increase. Per-event cost is flat for an O(1) dispatch path and grew
/// ~linearly (>5x) for the old full-scan path; 3x allows for cache
/// effects and noise without letting a linear term back in.
const CHECK_LINEARITY: f64 = 3.0;

/// `--check` bound on E9b scheduler pops per delivered datagram at
/// N = 1000 over N = 100. Ten times the devices means
/// ten times deeper bursts behind the busy collector; the kernel
/// carries a queued backlog as one entry per busy horizon, so the
/// ratio stays near 1 (it grew ~3x when every queued delivery was
/// re-pushed at every horizon). Deterministic: a pure function of the
/// seeded fixture.
const CHECK_DEFERRAL_GROWTH: f64 = 1.2;

/// `--check` ceiling on the telemetry sampler's wall-clock overhead at
/// N = 1000 (ratio of best-of-passes measured windows, sampled vs
/// plain). The 250 ms sampler walks the whole metrics registry a few
/// dozen times per window — per-event cost is amortized to near zero,
/// so the ceiling is headroom for measurement noise, not for the
/// sampler: quiet-host runs land anywhere in 0.97–1.03. 5% still fails
/// an order-of-magnitude sampler regression without flaking on a
/// shared box.
const CHECK_SAMPLER_OVERHEAD: f64 = 1.05;

/// `--check` ceiling on the always-on flight recorder's wall-clock
/// overhead at N = 1000 (min paired ratio over alternating passes,
/// recorder vs plain trace, on the E9b busy-sink fixture). The ring
/// journal evicts in half-capacity chunks, so the amortized per-span
/// cost is a few pointer moves; 3% is the issue's budget for keeping
/// the recorder on in every run.
const CHECK_RECORDER_OVERHEAD: f64 = 1.03;

/// `--check` ceiling on the attribution plane's wall-clock overhead at
/// N = 1000 (min paired ratio over alternating passes, telemetry +
/// attribution fold vs telemetry alone, on the E9b busy-sink fixture).
/// The fold is incremental — a cursor walk over spans begun or closed
/// since the last sample — so its amortized cost is a few map updates
/// per span; 3% matches the flight recorder's budget for keeping the
/// profiler on continuously.
const CHECK_ATTRIB_OVERHEAD: f64 = 1.03;

/// Default `--attrib-baseline`: the checked-in healthy-half attribution
/// snapshot the differential perf doctor diffs against.
const DEFAULT_ATTRIB_BASELINE: &str = "artifacts/E13_attrib_baseline.json";

/// Default `--shard-speedup`: E9c at 4 shards must simulate the same
/// virtual span in at most 1/this of the 1-shard run's wall time, at
/// N = 10 000. Linear
/// scaling would be 4x; 1.5x is the regression line with generous room
/// for barrier overhead and noisy multi-tenant hosts. Only enforced on
/// hosts with at least 4 cores.
const DEFAULT_SHARD_SPEEDUP: f64 = 1.5;

/// Federation size of the `--check` E9c shard gate.
const CHECK_SHARD_DEVICES: usize = 10_000;

pub const COMMAND: Command = Command {
    name: "perf-sched",
    values: &[
        "--json",
        "--floor-evps",
        "--p99-budget-us",
        "--recorder-overhead",
        "--attrib-overhead",
        "--attrib-baseline",
        "--shard-speedup",
        "--e9c-devices",
    ],
    switches: &["--check"],
    takes_args: false,
    usage: "perf-sched [--check] [--json FILE] [--floor-evps N] [--p99-budget-us N] \
            [--recorder-overhead X] [--attrib-overhead X] [--attrib-baseline FILE] \
            [--shard-speedup X] [--e9c-devices N]",
    run,
};

fn run(args: &Args) {
    let floor_evps: f64 = args.get("--floor-evps", DEFAULT_FLOOR_EVENTS_PER_SEC);
    let p99_budget_us: u64 = args.get("--p99-budget-us", DEFAULT_P99_BUDGET_US);
    let p99_budget_ns = p99_budget_us * 1_000;
    let shard_speedup: f64 = args.get("--shard-speedup", DEFAULT_SHARD_SPEEDUP);
    let recorder_ceiling: f64 = args.get("--recorder-overhead", CHECK_RECORDER_OVERHEAD);
    let attrib_ceiling: f64 = args.get("--attrib-overhead", CHECK_ATTRIB_OVERHEAD);
    let attrib_baseline = args.get("--attrib-baseline", DEFAULT_ATTRIB_BASELINE.to_owned());
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    if args.switch("--check") {
        // Differential perf doctor, first so a behavioral regression is
        // reported by *component* rather than surfacing later as an
        // anonymous wall-clock floor failure. The E13 attribution run
        // is a pure function of the seed, so against a baseline from
        // the same code the diff is empty; any code change that moves
        // virtual time shows up as a ranked per-component delta.
        // Only an absent baseline skips the doctor: one that exists but
        // does not parse fails the gate instead of passing silently.
        match std::fs::read_to_string(&attrib_baseline) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => println!(
                "bench perf-sched --check: no attribution baseline at {attrib_baseline}; \
                 differential doctor skipped"
            ),
            Err(e) => panic!("cannot read attribution baseline {attrib_baseline}: {e}"),
            Ok(text) => {
                let baseline = simnet::AttributionReport::from_json(&text).unwrap_or_else(|e| {
                    panic!("attribution baseline {attrib_baseline} does not parse: {e}")
                });
                let current = e13_attribution();
                let diff = simnet::diff_attribution(&baseline, &current.before);
                if let Some(top) = diff.top_regression() {
                    eprint!("{}", diff.to_text(8));
                    panic!(
                        "attribution drifted from {attrib_baseline}: {}/{} grew by {} ns \
                         (exemplar corr {:#x}) — regenerate the baseline with \
                         `bench attrib` if the change is intentional",
                        top.component, top.kind, top.delta_ns, top.exemplar_corr
                    );
                }
                println!(
                    "bench perf-sched --check: attribution matches {attrib_baseline} \
                     ({} components, {} cells moved, none regressed)",
                    current.before.components.len(),
                    diff.rows.len()
                );
            }
        }

        // Kernel smoke: both structures must run; the wheel must not be
        // grossly slower than the heap it replaced on a mixed schedule.
        let k = sched_kernel(10_000, 100_000);
        assert!(k.wheel_ns_per_op > 0.0 && k.heap_ns_per_op > 0.0);
        assert!(
            k.wheel_ns_per_op <= k.heap_ns_per_op * 3.0,
            "timer wheel regressed vs reference heap: {:.0} ns vs {:.0} ns",
            k.wheel_ns_per_op,
            k.heap_ns_per_op
        );

        // E9 endpoints: floor at N = 1000, near-linearity 100 -> 1000,
        // p99 dispatch within budget.
        let rows = e9_sched_scale(&[100, 1000], SimDuration::from_secs(5));
        let (small, large) = (&rows[0], &rows[1]);
        assert!(
            large.events_per_sec >= floor_evps,
            "events/sec at N=1000 below floor: {:.0} < {:.0}",
            large.events_per_sec,
            floor_evps
        );
        let cost_small = small.wall_secs / small.events.max(1) as f64;
        let cost_large = large.wall_secs / large.events.max(1) as f64;
        assert!(
            cost_large <= cost_small * CHECK_LINEARITY,
            "per-event cost grew {:.2}x from N=100 to N=1000 (bound {CHECK_LINEARITY}x)",
            cost_large / cost_small
        );
        assert!(
            large.p99_dispatch_ns <= p99_budget_ns,
            "p99 dispatch at N=1000 over budget: {} ns > {} ns",
            large.p99_dispatch_ns,
            p99_budget_ns
        );

        // E9b: busy deferral must stay O(k) in the burst depth k. The
        // pop counts are deterministic, so this gate does not depend on
        // host load.
        let e9b = e9b_deferral_sweep(&[100, 1000], SimDuration::from_millis(200));
        let (little, big) = (&e9b[0], &e9b[1]);
        assert!(
            big.pops_per_delivered <= little.pops_per_delivered * CHECK_DEFERRAL_GROWTH,
            "scheduler pops per delivered datagram grew from {:.3} at N=100 to {:.3} at \
             N=1000 (bound x{CHECK_DEFERRAL_GROWTH}): busy deferral is no longer O(k)",
            little.pops_per_delivered,
            big.pops_per_delivered
        );

        // Telemetry plane: the in-run sampler must stay within its
        // overhead budget on the same N = 1000 federation. Five
        // alternating best-of passes: the timed window is short enough
        // that one bad scheduling quantum can swing a single pass by
        // >10% on a shared host.
        let overhead = e10_sampler_overhead(1000, SimDuration::from_secs(5), 5);
        assert!(
            overhead <= CHECK_SAMPLER_OVERHEAD,
            "telemetry sampler overhead x{overhead:.3} at N=1000 exceeds x{CHECK_SAMPLER_OVERHEAD}"
        );

        // Flight recorder: always-on ring journaling must stay within
        // its overhead budget on the busy-sink fixture — the whole
        // point of the recorder is that nobody turns tracing off for
        // performance. Min paired ratio over alternating passes, same
        // rationale as the sampler gate.
        let recorder = e11_recorder_overhead(1000, SimDuration::from_secs(5), 5);
        assert!(
            recorder <= recorder_ceiling,
            "flight recorder overhead x{recorder:.3} at N=1000 exceeds x{recorder_ceiling} \
             (override with --recorder-overhead on a noisy host)"
        );

        // Attribution plane: the continuous time-decomposition fold
        // must stay within its overhead budget on the same fixture —
        // like the recorder, the profiler only earns always-on status
        // if nobody is tempted to turn it off. Min paired ratio over
        // alternating passes, same rationale as the sampler gate.
        let attrib = e13_attrib_overhead(1000, SimDuration::from_secs(5), 5);
        assert!(
            attrib <= attrib_ceiling,
            "attribution overhead x{attrib:.3} at N=1000 exceeds x{attrib_ceiling} \
             (override with --attrib-overhead on a noisy host)"
        );

        // E9c: sharded execution must keep paying for itself — the
        // 4-shard run of the N = 10k wing federation must finish the
        // same virtual span faster than the 1-shard run by the
        // configured floor. Wall time, not events/sec: the shard
        // count changes how many scheduler pops the same work takes. On a host with fewer
        // than 4 cores the floor is physically unreachable (threads
        // time-slice one core and pay barrier cost on top), so the
        // sweep runs as a smoke test and the floor is reported, not
        // enforced.
        let e9c = e9c_shard_scale(CHECK_SHARD_DEVICES, &[1, 4], SimDuration::from_secs(2));
        let (one, four) = (&e9c[0], &e9c[1]);
        assert!(
            one.events > 0 && four.events > 0,
            "E9c dispatched no events inside the measurement window"
        );
        assert!(
            four.windows > 0,
            "E9c 4-shard run executed no synchronized windows"
        );
        let sharded_speedup = one.wall_secs / four.wall_secs.max(1e-9);
        if host_cores < 4 {
            println!(
                "bench perf-sched --check: shard-scaling floor x{shard_speedup:.2} not enforced — \
                 host exposes {host_cores} core(s); measured x{sharded_speedup:.2} at 4 shards, \
                 N={CHECK_SHARD_DEVICES} (stall {:.1} ms over {} windows)",
                four.barrier_stall_ns as f64 / 1e6,
                four.windows
            );
        } else {
            assert!(
                sharded_speedup >= shard_speedup,
                "E9c shard scaling below floor: 4 shards gave x{sharded_speedup:.2} over 1 shard \
                 at N={CHECK_SHARD_DEVICES} (floor x{shard_speedup:.2}; override with \
                 --shard-speedup on a noisy host)"
            );
        }

        println!(
            "bench perf-sched --check: ok (N=1000 {:.0} events/s, per-event cost x{:.2} over 10x devices, p99 {} ns <= {} ns, E9b pops/datagram {:.3} at N=100 and {:.3} at N=1000, sampler overhead x{:.3}, recorder overhead x{:.3}, attribution overhead x{:.3}, shard speedup x{:.2} at 4 shards on {} core(s), wheel {:.0} ns/op vs heap {:.0} ns/op)",
            large.events_per_sec,
            cost_large / cost_small,
            large.p99_dispatch_ns,
            p99_budget_ns,
            little.pops_per_delivered,
            big.pops_per_delivered,
            overhead,
            recorder,
            attrib,
            sharded_speedup,
            host_cores,
            k.wheel_ns_per_op,
            k.heap_ns_per_op
        );
        return;
    }

    println!("scheduler kernel A/B (wall clock, pop+push cycles on a mixed schedule)");
    let mut kernel_lines = Vec::new();
    for pending in [1_000usize, 10_000, 100_000] {
        let k = sched_kernel(pending, 200_000);
        println!(
            "sched_kernel {pending:>7} pending: wheel {:>7.1} ns/op, heap {:>7.1} ns/op ({:.2}x)",
            k.wheel_ns_per_op,
            k.heap_ns_per_op,
            k.heap_ns_per_op / k.wheel_ns_per_op
        );
        kernel_lines.push(k);
    }

    let rows = e9_sched_scale(&[100, 250, 500, 1000], SimDuration::from_secs(15));
    println!("{}", render_e9(&rows));

    let e9b = e9b_deferral_sweep(&[100, 1000], SimDuration::from_millis(500));
    println!("{}", render_e9b(&e9b));

    let e9c_devices: usize = args.get("--e9c-devices", CHECK_SHARD_DEVICES);
    let e9c = e9c_shard_scale(e9c_devices, &[1, 2, 4, 8], SimDuration::from_secs(5));
    println!("{}", render_e9c(&e9c));
    println!("(host exposes {host_cores} core(s); shard counts above that time-slice)");

    if let Some(file) = args.opt("--json") {
        let kernel = kernel_lines.iter().map(|k| {
            Json::inline()
                .with("pending", k.pending)
                .with("ops", k.ops)
                .with("wheel_ns_per_op", Json::fixed(k.wheel_ns_per_op, 1))
                .with("heap_ns_per_op", Json::fixed(k.heap_ns_per_op, 1))
        });
        let e9 = rows.iter().map(|r| {
            Json::inline()
                .with("devices", r.devices)
                .with("events", r.events)
                .with("wall_secs", Json::fixed(r.wall_secs, 3))
                .with("events_per_sec", Json::fixed(r.events_per_sec, 0))
                .with("p99_dispatch_ns", r.p99_dispatch_ns)
                .with("allocs_per_event", Json::fixed(r.allocs_per_event, 4))
        });
        let e9b = e9b.iter().map(|r| {
            Json::inline()
                .with("devices", r.devices)
                .with("delivered", r.delivered)
                .with("delivered_per_sec", Json::fixed(r.delivered_per_sec, 0))
                .with("pops_per_delivered", Json::fixed(r.pops_per_delivered, 3))
        });
        let e9c = e9c.iter().map(|r| {
            Json::inline()
                .with("shards", r.shards)
                .with("devices", r.devices)
                .with("wings", r.wings)
                .with("events", r.events)
                .with("wall_secs", Json::fixed(r.wall_secs, 3))
                .with("events_per_sec", Json::fixed(r.events_per_sec, 0))
                .with("p99_dispatch_ns", r.p99_dispatch_ns)
                .with("barrier_stall_ns", r.barrier_stall_ns)
                .with("windows", r.windows)
        });
        let record = Json::block()
            .with("name", "perf_sched")
            .with("sched_kernel", Json::array(Layout::Block, kernel))
            .with("e9_sched_scale", Json::array(Layout::Block, e9))
            .with("e9b_deferral", Json::array(Layout::Block, e9b))
            .with("e9c_shard_scale", Json::array(Layout::Block, e9c))
            .with("host_cores", host_cores);
        bench::report::write_artifact(&file, &record.document(), "scheduler sweep");
    }
}
