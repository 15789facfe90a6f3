//! Host-time benchmark of the uMiddle reproduction.
//!
//! ```text
//! perfbench --workload <federation|bridged_stream|directory_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's world from the seed, runs it through warm-up,
//! then runs it in fixed virtual-time chunks for `--seconds` of host
//! time, single-threaded, and checks a digest of the simulated outputs.
//!
//! * `--trace 0` prints the end-to-end metrics: `ops_per_s`, `setup_s`
//!   and `peak_rss_mib`. The two host-time metrics are read at the
//!   reference host speed of [`probe`]; the raw figures are printed on
//!   the line before the result.
//! * `--trace 1` runs the same seed twice over the same virtual span,
//!   untraced and then with every process wrapped by the ledger, fails
//!   if the two digests differ, and prints the per-layer split, API
//!   timings and the tracing overhead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1
//! when a correctness check fails and 2 on a usage error.

mod alloc;
mod api;
mod fixtures;
mod ledger;
mod probe;
mod spec;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use simnet::SimTime;

use crate::ledger::{LedgerSnapshot, Tracer, KERNEL, LAYERS};
use crate::probe::Probe;
use crate::spec::MetricSpec;
use crate::workloads::{counts, digest, goodput_check, Counts, Digest, Scenario, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// When a measured window ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After this much host time.
    HostSeconds(f64),
    /// At this virtual time (replaying another run's window).
    At(SimTime),
}

/// Measured host time between two host-speed probes.
const PROBE_EVERY_NS: u64 = 50_000_000;

/// One measured window.
struct Window {
    /// Chunks run.
    chunks: usize,
    /// Host ns inside `run_until`, summed over chunks.
    wall_ns: u64,
    /// The same time at the probe's reference host speed: each chunk's
    /// host time divided by the slowdown the latest probe measured.
    ref_ns: f64,
    /// Probes taken.
    probes: usize,
    /// Scheduler events dispatched.
    events: u64,
    /// Counts over the window.
    counts: Counts,
    /// `payload.allocs` and `payload.bytes_copied` growth.
    payload: (u64, u64),
    /// Ledger growth (traced runs).
    ledger: LedgerSnapshot,
    /// Heap `(allocations, bytes)` per layer (traced runs).
    heap: [(u64, u64); LAYERS],
    /// Virtual span.
    start: SimTime,
    end: SimTime,
}

impl Window {
    fn ops(&self, w: Workload) -> u64 {
        w.ops(&self.counts)
    }
    fn virtual_secs(&self) -> f64 {
        (self.end.as_nanos() - self.start.as_nanos()) as f64 / 1e9
    }
}

/// Builds the world and runs warm-up; returns it with the host seconds
/// that took.
fn setup(w: Workload, seed: u64, tracer: &Tracer) -> (Scenario, f64) {
    let t0 = Instant::now();
    let mut sc = w.build(seed, tracer);
    sc.world.run_until(w.warmup());
    (sc, t0.elapsed().as_secs_f64())
}

/// [`setup`], also returning its time at the reference host speed (the
/// host's slowdown probed just before and just after).
fn probed_setup(
    w: Workload,
    seed: u64,
    tracer: &Tracer,
    probe: &mut Probe,
) -> (Scenario, f64, f64) {
    let before = probe.slowdown(3);
    let (sc, secs) = setup(w, seed, tracer);
    let after = probe.slowdown(3);
    (sc, secs, secs * 2.0 / (before + after))
}

fn measure(w: Workload, sc: &mut Scenario, tracer: &Tracer, stop: Stop) -> Window {
    let start = sc.world.now();
    let c0 = counts(sc);
    let ev0 = sc.world.events_processed();
    let pay0 = payload(sc);
    let led0 = tracer.ledger().map(|l| l.snapshot()).unwrap_or_default();
    let mut heap = [(0u64, 0u64); LAYERS];
    let mut chunks = 0;
    let mut wall_ns = 0u64;
    let mut ref_ns = 0.0;
    let mut probe = Probe::new();
    let mut probes = 0;
    let mut slowdown = 1.0;
    let mut since_probe = PROBE_EVERY_NS;
    let t_begin = Instant::now();
    loop {
        let done = match stop {
            Stop::HostSeconds(s) => t_begin.elapsed().as_secs_f64() >= s,
            Stop::At(end) => sc.world.now() >= end,
        };
        if done {
            break;
        }
        if since_probe >= PROBE_EVERY_NS {
            slowdown = probe.slowdown(1);
            probes += 1;
            since_probe = 0;
        }
        let target = sc.world.now() + w.chunk();
        let h0 = alloc::snapshot();
        alloc::set_counting(tracer.ledger().is_some());
        let t0 = Instant::now();
        sc.world.run_until(target);
        let dt = t0.elapsed().as_nanos() as u64;
        alloc::set_counting(false);
        let h1 = alloc::snapshot();
        for (acc, (a, b)) in heap.iter_mut().zip(h0.iter().zip(h1.iter())) {
            acc.0 += b.0 - a.0;
            acc.1 += b.1 - a.1;
        }
        chunks += 1;
        wall_ns += dt;
        ref_ns += dt as f64 / slowdown;
        since_probe += dt;
    }
    let pay1 = payload(sc);
    Window {
        chunks,
        wall_ns,
        ref_ns,
        probes,
        events: sc.world.events_processed() - ev0,
        counts: counts(sc).since(&c0),
        payload: (pay1.0 - pay0.0, pay1.1 - pay0.1),
        ledger: tracer
            .ledger()
            .map(|l| l.snapshot().since(&led0))
            .unwrap_or_default(),
        heap,
        start,
        end: sc.world.now(),
    }
}

fn payload(sc: &Scenario) -> (u64, u64) {
    let t = sc.world.trace();
    (
        t.counter("payload.allocs"),
        t.counter("payload.bytes_copied"),
    )
}

/// Stops the workload's load generators, lets the directory settle and
/// digests the run.
fn finish(w: Workload, sc: &mut Scenario, win: &Window) -> Digest {
    sc.quiesce.set(true);
    let settle = sc.world.now() + w.drain();
    sc.world.run_until(settle);
    let mut d = digest(w, sc, &win.counts, win.end);
    goodput_check(w, &win.counts, win.virtual_secs(), &mut d);
    d
}

/// Failed operations: connect failures, failure counters and unanswered
/// lookups, over the whole run.
fn failures(sc: &Scenario) -> u64 {
    let c = counts(sc);
    c.connect_failed + c.failure_counters + (c.lookups_sent - c.lookups_answered)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Measured metric values by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), value);
    }
}

/// Prints the result line: `specs` in catalogue order, with units.
fn print_result(correct: bool, attempted: u64, failed: u64, specs: &[MetricSpec], m: &Metrics) {
    let body: Vec<String> = specs
        .iter()
        .map(|s| {
            let value =
                m.0.get(&s.name)
                    .expect("every catalogued metric is measured");
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn print_digest(label: &str, d: &Digest) {
    println!("{label} digest: {}", d.lines.join(" "));
    for f in &d.failures {
        println!("CHECK FAILED: {f}");
    }
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args) -> (bool, u64, u64, Metrics) {
    let w = args.workload;
    let tracer = Tracer::new(false);
    let mut probe = Probe::new();
    let (mut sc, raw_setup, ref_setup) = probed_setup(w, args.seed, &tracer, &mut probe);
    let mut setups = vec![raw_setup];
    let mut ref_setups = vec![ref_setup];
    let win = measure(w, &mut sc, &tracer, Stop::HostSeconds(args.seconds));
    let d = finish(w, &mut sc, &win);
    print_digest("untraced", &d);
    let failed = failures(&sc);
    drop(sc);
    for _ in 1..SETUP_REPS {
        let (sc, raw_setup, ref_setup) = probed_setup(w, args.seed, &tracer, &mut probe);
        drop(sc);
        setups.push(raw_setup);
        ref_setups.push(ref_setup);
    }
    let ops = win.ops(w);
    let attempted = ops + failed;
    let raw_rate = ratio(ops as f64, win.wall_ns as f64 / 1e9);
    println!(
        "window: {:.1} virtual s in {:.3} host s, {} chunks, {ops} ops, {} events",
        win.virtual_secs(),
        win.wall_ns as f64 / 1e9,
        win.chunks,
        win.events,
    );
    println!(
        "host: {raw_rate:.1} ops/s and set-ups {setups:.3?} s as measured; \
         mean host slowdown {:.4} over {} probes",
        win.wall_ns as f64 / win.ref_ns,
        win.probes
    );
    println!(
        "error_ratio: {} ({failed} failed / {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );
    let mut m = Metrics::default();
    m.add("ops_per_s", ratio(ops as f64, win.ref_ns / 1e9));
    m.add("setup_s", median(&mut ref_setups));
    m.add("peak_rss_mib", peak_rss_mib());
    (d.failures.is_empty(), attempted.max(1), failed, m)
}

/// The traced run: the same seed untraced and traced over one virtual
/// span, then the per-layer split and the API timings.
fn traced(args: &Args) -> (bool, u64, u64, Metrics) {
    let w = args.workload;
    let plain = Tracer::new(false);
    let (mut sc, _) = setup(w, args.seed, &plain);
    let base = measure(w, &mut sc, &plain, Stop::HostSeconds(args.seconds));
    let d_plain = finish(w, &mut sc, &base);
    drop(sc);

    let tracer = Tracer::new(true);
    let (mut sc, _) = setup(w, args.seed, &tracer);
    let win = measure(w, &mut sc, &tracer, Stop::At(base.end));
    let d_traced = finish(w, &mut sc, &win);
    let failed = failures(&sc);
    drop(sc);
    print_digest("untraced", &d_plain);
    print_digest("traced", &d_traced);
    let mut correct = d_plain.failures.is_empty() && d_traced.failures.is_empty();
    if d_plain.lines != d_traced.lines {
        println!("CHECK FAILED: traced and untraced digests differ");
        correct = false;
    }

    let ops = win.ops(w) as f64;
    let wall = win.wall_ns as f64;
    let led = &win.ledger;
    let handler = led.handler_ns() as f64;
    let kernel_ns = wall - handler;
    if kernel_ns < 0.0 {
        println!("CHECK FAILED: handler time exceeds the traced wall time");
        correct = false;
    }
    println!(
        "closure: kernel self {:.3} s + handlers {:.3} s = traced wall {:.3} s; {} calls, {} events",
        kernel_ns / 1e9,
        handler / 1e9,
        wall / 1e9,
        led.total_calls(),
        win.events
    );

    let mut m = Metrics::default();
    let events = win.events as f64;
    let calls = led.total_calls() as f64;
    m.add("simnet.kernel.self_share", ratio(kernel_ns, wall));
    m.add("simnet.kernel.events_per_call", ratio(events, calls));
    m.add("simnet.kernel.ns_per_event", ratio(kernel_ns, events));
    let (k_allocs, k_bytes) = win.heap[KERNEL];
    m.add(
        "simnet.kernel.allocs_per_event",
        ratio(k_allocs as f64, events),
    );
    m.add(
        "simnet.kernel.bytes_per_event",
        ratio(k_bytes as f64, events),
    );
    m.add(
        "simnet.payload.allocs_per_op",
        ratio(win.payload.0 as f64, ops),
    );
    m.add(
        "simnet.payload.bytes_copied_per_op",
        ratio(win.payload.1 as f64, ops),
    );
    for layer in (KERNEL + 1)..LAYERS {
        let name = ledger::layer_name(layer);
        let c = led.calls[layer] as f64;
        let ns = led.ns[layer] as f64;
        let (allocs, bytes) = win.heap[layer];
        m.add(format!("{name}.calls_per_op"), ratio(c, ops));
        m.add(format!("{name}.ns_per_call"), ratio(ns, c));
        m.add(format!("{name}.share"), ratio(ns, wall));
        m.add(format!("{name}.allocs_per_call"), ratio(allocs as f64, c));
        m.add(format!("{name}.bytes_per_call"), ratio(bytes as f64, c));
    }
    for t in api::run(args.seed) {
        let mut s = t.samples;
        s.sort_unstable();
        m.add(format!("{}.p50", t.name), percentile(&s, 0.5));
        m.add(format!("{}.p99", t.name), percentile(&s, 0.99));
        m.add(format!("{}.samples", t.name), s.len() as f64);
    }
    m.add("trace.overhead_ratio", ratio(wall, base.wall_ns as f64));
    let attempted = win.ops(w) + failed;
    (correct, attempted.max(1), failed, m)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--emit-spec") {
        print!("{}", spec::benchmark_json());
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <federation|bridged_stream|directory_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let specs = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    print_result(correct, attempted, failed, &specs, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
