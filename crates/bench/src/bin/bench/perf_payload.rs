//! `bench perf-payload`: data-path micro-benchmarks for the zero-copy
//! payload work — bulk wire frame decoding, multicast fan-out and stream
//! bulk transfer (see `bench::timing` for the measured kernels).
//!
//! `--check` runs a fast smoke pass plus deterministic regressions (CI):
//! decode linearity over the wire, JRMP and MediaBroker framers, and,
//! on the bridged Figure-11 RMI-MB path, zero payload bytes copied and
//! a bound on scheduler pops per delivered message. `--json FILE`
//! writes the measured numbers as deterministic-schema JSON (time
//! values are wall-clock and machine-dependent; the schema and the
//! payload copy counters are what golden files assert on). The full run also replays the E8
//! observability federation and reports its end-to-end path-latency
//! histogram next to the payload copy counters.

use bench::experiments::e8_observability;
use bench::outln;
use bench::timing::{
    assert_decode_copies_linear, bridged_window, decode_bulk, multicast_fanout,
    stream_bulk_transfer, Framer,
};
use simnet::{Json, Layout};

use crate::{Args, Command};

pub const COMMAND: Command = Command {
    name: "perf-payload",
    values: &["--json"],
    switches: &["--check"],
    takes_args: false,
    usage: "perf-payload [--check] [--json FILE]",
    run,
};

/// Bound on scheduler pops (`World::events_processed`) per delivered
/// message over the bridged RMI-MB window of `--check`. The window pops
/// 15,986 entries for 478 messages (33.444 per message) with one queued
/// retransmission timer per stream side; with one queued entry per
/// timer arm it popped 18,527 (38.759). Deterministic, so the bound is
/// the measured count, rounded up.
const BRIDGED_POPS_PER_MESSAGE: f64 = 33.45;

/// The E8 payload counters reported next to the benches.
const PAYLOAD_COUNTERS: [&str; 3] = [
    "payload.allocs",
    "payload.bytes_copied",
    "payload.shared_clones",
];

fn run(args: &Args) {
    if args.switch("--check") {
        // CI smoke: one small iteration of each case so the bench code
        // cannot rot, plus the deterministic linearity regression.
        let run = decode_bulk(Framer::Wire, 16);
        assert!(run.ns_per_frame > 0.0);
        let linear = assert_decode_copies_linear(64);
        let fanout = multicast_fanout(4, 4);
        assert!(fanout.ns_per_send > 0.0);
        assert!(fanout.shared_bytes > 0, "fan-out must share buffers");
        let per_kib = stream_bulk_transfer(64 * 1024, 0.0);
        assert!(per_kib > 0.0);
        let bridged = bridged_window();
        let (copied, delivered) = (bridged.bytes_copied, bridged.delivered);
        assert!(delivered > 0, "the bridged RMI-MB path delivered nothing");
        assert_eq!(
            copied, 0,
            "the bridged RMI-MB path copied {copied} B over {delivered} delivered messages (bound 0)"
        );
        let pops = bridged.events as f64 / delivered as f64;
        assert!(
            pops <= BRIDGED_POPS_PER_MESSAGE,
            "the bridged RMI-MB path popped {} scheduler entries over {delivered} delivered \
             messages, {pops:.3} per message (bound {BRIDGED_POPS_PER_MESSAGE})",
            bridged.events
        );
        outln!(
            "bench perf-payload --check: ok (decode copies {linear:?} B, linear; \
             bridged RMI-MB copies 0 B/message over {delivered} messages, bound 0; \
             bridged RMI-MB scheduler pops {pops:.3}/message, bound {BRIDGED_POPS_PER_MESSAGE})"
        );
        return;
    }

    outln!("zero-copy payload path benches (wall clock)");
    let run_1k = decode_bulk(Framer::Wire, 1_000);
    let run_2k = decode_bulk(Framer::Wire, 2_000);
    outln!(
        "wire_decode_bulk   1k frames: {:>10} ns total, {:>9.1} ns/frame, {} B copied",
        run_1k.ns_total,
        run_1k.ns_per_frame,
        run_1k.payload.bytes_copied
    );
    outln!(
        "wire_decode_bulk   2k frames: {:>10} ns total, {:>9.1} ns/frame, {} B copied",
        run_2k.ns_total,
        run_2k.ns_per_frame,
        run_2k.payload.bytes_copied
    );
    outln!(
        "wire_decode_bulk   per-frame ratio 2k/1k: {:.2} wall, {:.2} copied (linear ≈ 1.0)",
        run_2k.ns_per_frame / run_1k.ns_per_frame,
        run_2k.payload.bytes_copied as f64 / (2 * run_1k.payload.bytes_copied.max(1)) as f64
    );
    let decode_rows = [(1_000usize, &run_1k), (2_000, &run_2k)].map(|(frames, run)| {
        Json::inline()
            .with("frames", frames)
            .with("ns_total", run.ns_total)
            .with("ns_per_frame", Json::fixed(run.ns_per_frame, 1))
            .with("bytes_copied", run.payload.bytes_copied)
            .with("allocs", run.payload.allocs)
    });

    let mut fanout_rows = Vec::new();
    for receivers in [8usize, 32, 128] {
        let run = multicast_fanout(receivers, 50);
        outln!(
            "multicast_fanout   {receivers:>3} receivers: {:>10.0} ns/send, {} B delivered, {} B shared, {} B copied",
            run.ns_per_send, run.delivered_bytes, run.shared_bytes, run.payload.bytes_copied
        );
        fanout_rows.push(
            Json::inline()
                .with("receivers", receivers)
                .with("sends", 50u64)
                .with("ns_per_send", Json::fixed(run.ns_per_send, 0))
                .with("delivered_bytes", run.delivered_bytes)
                .with("shared_bytes", run.shared_bytes)
                .with("bytes_copied", run.payload.bytes_copied),
        );
    }

    let mut stream_rows = Vec::new();
    for (total, loss) in [(1_000_000usize, 0.0), (500_000, 0.02)] {
        let per_kib = stream_bulk_transfer(total, loss);
        outln!("stream_bulk        {total:>7} B loss {loss:>4}: {per_kib:>8.0} ns/KiB");
        stream_rows.push(
            Json::inline()
                .with("total_bytes", total)
                .with("loss", Json::Num(loss.to_string()))
                .with("ns_per_kib", Json::fixed(per_kib, 0)),
        );
    }

    // E8: the two-runtime federation, with the payload copy counters
    // part of its metrics snapshot.
    let e8 = e8_observability();
    let mut e8_path = Json::block();
    if let Some(h) = e8.snapshot.histograms.get("umiddle.path_latency") {
        outln!(
            "e8 path_latency    count {} mean {} min {} max {}",
            h.count(),
            h.mean(),
            h.min(),
            h.max()
        );
        e8_path.push(
            "path_latency",
            Json::inline()
                .with("count", h.count())
                .with("mean_ns", h.mean().as_nanos())
                .with("min_ns", h.min().as_nanos())
                .with("max_ns", h.max().as_nanos()),
        );
    }
    let counter = |name: &str| e8.snapshot.counters.get(name).copied().unwrap_or(0);
    for name in PAYLOAD_COUNTERS {
        outln!("e8 {name:<24} {}", counter(name));
    }
    e8_path.push(
        "payload_counters",
        Json::object(
            Layout::Inline,
            PAYLOAD_COUNTERS.map(|name| (name, counter(name))),
        ),
    );

    if let Some(file) = args.opt("--json") {
        let record = Json::block()
            .with("wire_decode_bulk", Json::array(Layout::Block, decode_rows))
            .with("multicast_fanout", Json::Array(Layout::Block, fanout_rows))
            .with(
                "stream_bulk_transfer",
                Json::Array(Layout::Block, stream_rows),
            )
            .with("e8_two_runtime_path", e8_path);
        bench::report::write_artifact(&file, &record.document(), "payload benches");
    }
}
