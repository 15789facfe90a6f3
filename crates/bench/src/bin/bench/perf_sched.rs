//! `bench perf-sched`: scheduler benchmarks — the timer-wheel kernel
//! A/B against the reference min-heap (a mixed schedule and a
//! same-time burst schedule), the E9 six-bridge federation
//! scaling sweep (events/sec, p99 dispatch latency, allocations/event),
//! and the E9b busy-deferral sweep (scheduler pops per delivered
//! datagram under bursty fan-in into a busy sink).
//!
//! `--check` is the CI scaling-regression gate: an events/sec floor at
//! N = 1000, a near-linearity bound on the per-event wall cost from
//! N = 100 to N = 1000, a p99 dispatch-latency budget, a bound on E9b
//! scheduler pops per delivered datagram (flat in burst size), ceilings
//! on the telemetry sampler's and the attribution plane's overhead at
//! N = 1000, and the differential perf doctor (the E13 attribution run
//! diffed against its checked-in baseline).
//! `--json FILE` writes the sweep as deterministic-schema JSON (values
//! are wall-clock and machine-dependent; the schema is what golden
//! files assert on).
//!
//! The gate's bounds are the `CHECK_*` constants below. One flag:
//!
//! * `--attrib-baseline FILE` — checked-in attribution baseline the
//!   differential perf doctor diffs the current E13 run against
//!   (default `artifacts/E13_attrib_baseline.json`). An absent file
//!   skips the doctor; a file that does not parse fails the check. A
//!   positive delta fails the check *naming the regressed component*;
//!   regenerate the baseline with `bench attrib` when the change is
//!   intentional.

use bench::experiments::{
    e10_sampler_overhead, e13_attrib_overhead, e13_attribution, e9_sched_scale, e9b_deferral_sweep,
    OVERHEAD_WINDOW,
};
use bench::outln;
use bench::report::{render_e9, render_e9b};
use bench::timing::{sched_kernel, SchedShape};
use simnet::{Json, Layout, SimDuration};

use crate::{Args, Command};

/// `--check` events/sec floor at N = 1000. The engine measures well
/// above 10x this on a developer laptop and ~5x in CI containers; the
/// old linear-scan dispatch path sat below it.
const CHECK_FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// `--check` ceiling on the p99 wall cost of one dispatched event at
/// N = 1000. Measured p99 is ~1 µs; 200 µs keeps the gate insensitive
/// to CI scheduling jitter while still catching an O(N) term sneaking
/// back into the dispatch path.
const CHECK_P99_BUDGET_NS: u64 = 200_000;

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
/// N = 1000 (median of the per-slice ratios over [`OVERHEAD_WINDOW`],
/// sampled vs plain). The 250 ms sampler walks the whole metrics
/// registry by `MetricId` once per slice and reads no metric name; on a
/// shared 2-core VM the gate reads 0.98–1.01 (1.01–1.03 while the rings
/// were keyed by name). 5% still fails an order-of-magnitude sampler
/// regression without flaking on a shared box.
const CHECK_SAMPLER_OVERHEAD: f64 = 1.05;

/// `--check` ceiling on the attribution plane's wall-clock overhead at
/// N = 1000 (median of the per-slice ratios, telemetry + attribution
/// fold vs telemetry alone, on the E9 federation, whose bridge hops
/// begin and close spans: about 480k spans fold in the window).
/// The fold is incremental — a cursor walk over spans begun or closed
/// since the last sample — so its amortized cost is a few map updates
/// per span; 3% is the budget for keeping the profiler on
/// continuously.
const CHECK_ATTRIB_OVERHEAD: f64 = 1.03;

/// Default `--attrib-baseline`: the checked-in healthy-half attribution
/// snapshot the differential perf doctor diffs against.
const DEFAULT_ATTRIB_BASELINE: &str = "artifacts/E13_attrib_baseline.json";

pub const COMMAND: Command = Command {
    name: "perf-sched",
    values: &["--json", "--attrib-baseline"],
    switches: &["--check"],
    takes_args: false,
    usage: "perf-sched [--check] [--json FILE] [--attrib-baseline FILE]",
    run,
};

fn run(args: &Args) {
    let attrib_baseline = args.get("--attrib-baseline", DEFAULT_ATTRIB_BASELINE);

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
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => outln!(
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
                outln!(
                    "bench perf-sched --check: attribution matches {attrib_baseline} \
                     ({} components, {} cells moved, none regressed)",
                    current.before.components.len(),
                    diff.rows.len()
                );
            }
        }

        // Kernel smoke: both structures must run; the wheel must not be
        // grossly slower than the heap it replaced, on a mixed schedule
        // or on same-time bursts that reach the near window by cascade.
        let kernel = [SchedShape::Mixed, SchedShape::Bursts].map(|shape| {
            let k = sched_kernel(shape, 10_000, 100_000);
            assert!(k.wheel_ns_per_op > 0.0 && k.heap_ns_per_op > 0.0);
            assert!(
                k.wheel_ns_per_op <= k.heap_ns_per_op * 3.0,
                "timer wheel regressed vs reference heap on the {} schedule: \
                 {:.0} ns vs {:.0} ns",
                shape.name(),
                k.wheel_ns_per_op,
                k.heap_ns_per_op
            );
            k
        });

        // E9 endpoints: floor at N = 1000, near-linearity 100 -> 1000,
        // p99 dispatch within budget.
        let rows = e9_sched_scale(&[100, 1000], SimDuration::from_secs(5));
        let (small, large) = (&rows[0], &rows[1]);
        assert!(
            large.events_per_sec >= CHECK_FLOOR_EVENTS_PER_SEC,
            "events/sec at N=1000 below floor: {:.0} < {CHECK_FLOOR_EVENTS_PER_SEC:.0}",
            large.events_per_sec
        );
        let cost_small = small.wall_secs / small.events.max(1) as f64;
        let cost_large = large.wall_secs / large.events.max(1) as f64;
        assert!(
            cost_large <= cost_small * CHECK_LINEARITY,
            "per-event cost grew {:.2}x from N=100 to N=1000 (bound {CHECK_LINEARITY}x)",
            cost_large / cost_small
        );
        assert!(
            large.p99_dispatch_ns <= CHECK_P99_BUDGET_NS,
            "p99 dispatch at N=1000 over budget: {} ns > {CHECK_P99_BUDGET_NS} ns",
            large.p99_dispatch_ns
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
        // overhead budget on the same N = 1000 federation.
        let (window, slices) = OVERHEAD_WINDOW;
        let overhead = e10_sampler_overhead(1000, window, slices);
        assert!(
            overhead <= CHECK_SAMPLER_OVERHEAD,
            "telemetry sampler overhead x{overhead:.3} at N=1000 exceeds x{CHECK_SAMPLER_OVERHEAD}"
        );

        // Attribution plane: the continuous time-decomposition fold
        // must stay within its overhead budget on the same fixture —
        // the profiler only earns always-on status if nobody is
        // tempted to turn it off. Same paired median as the sampler
        // gate; the helper also fails if the window folded no span.
        let attrib = e13_attrib_overhead(1000, window, slices);
        assert!(
            attrib <= CHECK_ATTRIB_OVERHEAD,
            "attribution overhead x{attrib:.3} at N=1000 exceeds x{CHECK_ATTRIB_OVERHEAD}"
        );

        outln!(
            "bench perf-sched --check: ok (N=1000 {:.0} events/s, per-event cost x{:.2} over 10x devices, p99 {} ns <= {} ns, E9b pops/datagram {:.3} at N=100 and {:.3} at N=1000, sampler overhead x{:.3}, attribution overhead x{:.3}, wheel {:.0} ns/op vs heap {:.0} ns/op mixed, {:.0} vs {:.0} bursts)",
            large.events_per_sec,
            cost_large / cost_small,
            large.p99_dispatch_ns,
            CHECK_P99_BUDGET_NS,
            little.pops_per_delivered,
            big.pops_per_delivered,
            overhead,
            attrib,
            kernel[0].wheel_ns_per_op,
            kernel[0].heap_ns_per_op,
            kernel[1].wheel_ns_per_op,
            kernel[1].heap_ns_per_op
        );
        return;
    }

    outln!("scheduler kernel A/B (wall clock, pop+push cycles)");
    let mut kernel_lines = Vec::new();
    let rows = [1_000usize, 10_000, 100_000]
        .map(|pending| (SchedShape::Mixed, pending))
        .into_iter()
        .chain([(SchedShape::Bursts, 10_000)]);
    for (shape, pending) in rows {
        let k = sched_kernel(shape, pending, 200_000);
        outln!(
            "sched_kernel {:<6} {pending:>7} pending: wheel {:>7.1} ns/op, heap {:>7.1} ns/op ({:.2}x)",
            shape.name(),
            k.wheel_ns_per_op,
            k.heap_ns_per_op,
            k.heap_ns_per_op / k.wheel_ns_per_op
        );
        kernel_lines.push(k);
    }

    let rows = e9_sched_scale(&[100, 250, 500, 1000], SimDuration::from_secs(15));
    outln!("{}", render_e9(&rows));

    let e9b = e9b_deferral_sweep(&[100, 1000], SimDuration::from_millis(500));
    outln!("{}", render_e9b(&e9b));

    if let Some(file) = args.opt("--json") {
        let host_cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let kernel = kernel_lines.iter().map(|k| {
            Json::inline()
                .with("shape", k.shape.name())
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
        let record = Json::block()
            .with("name", "perf_sched")
            .with("sched_kernel", Json::array(Layout::Block, kernel))
            .with("e9_sched_scale", Json::array(Layout::Block, e9))
            .with("e9b_deferral", Json::array(Layout::Block, e9b))
            .with("host_cores", host_cores);
        bench::report::write_artifact(&file, &record.document(), "scheduler sweep");
    }
}
