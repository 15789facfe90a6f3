//! Minimal wall-clock micro-benchmark harness (criterion replacement,
//! dependency-free).
//!
//! Each benchmark is warmed up, then run in adaptively sized batches
//! until a fixed measurement budget elapses; the report prints the
//! median batch cost per iteration with its 10th and 90th percentiles,
//! and returns them as a [`Spread`] for the caller to record.
//! Wall-clock numbers are inherently noisy — the point is tracking the
//! CPU-bound codecs with their spread, not statistical rigor.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use platform_mediabroker::{MbAccumulator, MbFrame};
use platform_rmi::{FrameAccumulator, JavaValue, RmiFrame};
use simnet::{
    Addr, Ctx, Payload, PayloadStats, Process, SegmentConfig, SimDuration, SimTime, StreamEvent,
    StreamId, World,
};
use umiddle_core::{ConnectionId, PortRef, RuntimeId, TranslatorId, UMessage, WireMessage};

/// Re-export so benches read like the criterion originals.
pub use std::hint::black_box as bb;

const WARMUP: Duration = Duration::from_millis(50);
const BUDGET: Duration = Duration::from_millis(250);

/// One measured sample: a batch of iterations and its total duration.
#[derive(Debug, Clone, Copy)]
struct Sample {
    iters: u64,
    elapsed: Duration,
}

impl Sample {
    fn ns_per_iter(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.iters as f64
    }
}

/// Cost per iteration over a benchmark's batches, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median batch.
    pub median_ns: f64,
    /// The 10th-percentile batch.
    pub p10_ns: f64,
    /// The 90th-percentile batch.
    pub p90_ns: f64,
    /// Batches measured.
    pub samples: usize,
}

/// Times `f`, prints a one-line report (`name  median (p10 … p90)`) and
/// returns the spread.
pub fn bench_function<R, F: FnMut() -> R>(name: &str, mut f: F) -> Spread {
    // Warm-up: run until the warm-up budget elapses, sizing the batch.
    let mut batch: u64 = 1;
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP {
        for _ in 0..batch {
            black_box(f());
        }
        batch = (batch * 2).min(1 << 20);
    }

    // Pick a batch size that takes roughly 5 ms so timer overhead is
    // amortized but we still collect tens of samples.
    let probe_start = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    let probe = probe_start.elapsed().max(Duration::from_nanos(1));
    let target = Duration::from_millis(5);
    let scale = target.as_nanos() as f64 / probe.as_nanos() as f64;
    let batch = ((batch as f64 * scale).max(1.0) as u64).min(1 << 24);

    let mut samples: Vec<Sample> = Vec::new();
    let run_start = Instant::now();
    while run_start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(Sample {
            iters: batch,
            elapsed: t.elapsed(),
        });
    }

    let mut per_iter: Vec<f64> = samples.iter().map(Sample::ns_per_iter).collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let at = |q: usize| per_iter[(per_iter.len() - 1) * q / 100];
    let spread = Spread {
        median_ns: at(50),
        p10_ns: at(10),
        p90_ns: at(90),
        samples: per_iter.len(),
    };
    crate::outln!(
        "{name:<32} median {:>12}  (p10 {:>12}  p90 {:>12})  ({} samples x {batch} iters)",
        fmt_ns(spread.median_ns),
        fmt_ns(spread.p10_ns),
        fmt_ns(spread.p90_ns),
        spread.samples,
    );
    spread
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

// =====================================================================
// Data-path micro-benches (the zero-copy payload work)
// =====================================================================

/// Payload size used by the data-path benches (a JPEG-ish frame).
pub const PAYLOAD_BODY: usize = 1400;

fn path_message(body: usize) -> WireMessage {
    WireMessage::PathMessage {
        connection: ConnectionId::new(RuntimeId(0), 1),
        dst: PortRef::new(TranslatorId::new(RuntimeId(1), 7), "in"),
        msg: UMessage::new("image/jpeg".parse().expect("static mime"), vec![0xAB; body]),
    }
}

/// The `u32`-length-prefixed stream codecs, whose decoders all pop
/// frames through `ChunkQueue::pop_u32_frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framer {
    /// Runtime path messages through `FrameDecoder`.
    Wire,
    /// RMI calls through `FrameAccumulator`.
    Jrmp,
    /// MediaBroker data frames through `MbAccumulator`.
    Mb,
}

impl Framer {
    /// One framed message carrying a [`PAYLOAD_BODY`]-byte body, as the
    /// bridged path sends it.
    fn frame(self) -> Payload {
        let body = vec![0xAB; PAYLOAD_BODY];
        match self {
            Framer::Wire => path_message(PAYLOAD_BODY).encode_framed(),
            Framer::Jrmp => RmiFrame::Call {
                call_id: 1,
                object: "EchoService".to_owned(),
                method: "echo".to_owned(),
                args: vec![JavaValue::Bytes(body.into())],
            }
            .encode_framed(),
            Framer::Mb => MbFrame::Data {
                payload: body.into(),
            }
            .encode_framed(),
        }
    }

    /// Pushes every chunk into a fresh decoder, then drains it; returns
    /// the number of frames decoded.
    fn decode_all<'a>(self, chunks: impl Iterator<Item = &'a [u8]>) -> usize {
        fn drain<T, E: std::fmt::Debug>(mut next: impl FnMut() -> Result<Option<T>, E>) -> usize {
            let mut decoded = 0;
            while let Some(f) = next().expect("well-formed frames") {
                black_box(f);
                decoded += 1;
            }
            decoded
        }
        match self {
            Framer::Wire => {
                let mut dec = umiddle_core::FrameDecoder::new();
                chunks.for_each(|c| dec.push(c));
                drain(|| dec.next())
            }
            Framer::Jrmp => {
                let mut dec = FrameAccumulator::new();
                chunks.for_each(|c| dec.push(c));
                drain(|| dec.next())
            }
            Framer::Mb => {
                let mut dec = MbAccumulator::new();
                chunks.for_each(|c| dec.push(c));
                drain(|| dec.next())
            }
        }
    }
}

/// Result of one [`decode_bulk`] run.
#[derive(Debug, Clone, Copy)]
pub struct DecodeRun {
    /// Wall-clock nanoseconds for the whole drain.
    pub ns_total: u128,
    /// Wall-clock nanoseconds per decoded frame.
    pub ns_per_frame: f64,
    /// Payload copy accounting for the run (deterministic).
    pub payload: PayloadStats,
}

/// Buffers `frames` length-prefixed `framer` messages into its decoder
/// (in 4 KiB chunks, as a stream would deliver them), then drains them
/// all — the worst case for a decoder that shifts its buffer per
/// extracted frame. The copy count covers the pushes and the frames
/// the decoder assembles across chunk boundaries.
pub fn decode_bulk(framer: Framer, frames: usize) -> DecodeRun {
    let one = framer.frame();
    let mut stream = Vec::with_capacity(one.len() * frames);
    for _ in 0..frames {
        stream.extend_from_slice(&one);
    }
    simnet::payload::take_stats();
    let start = Instant::now();
    let decoded = framer.decode_all(stream.chunks(4096));
    let ns = start.elapsed().as_nanos();
    assert_eq!(decoded, frames);
    DecodeRun {
        ns_total: ns,
        ns_per_frame: ns as f64 / frames as f64,
        payload: simnet::payload::take_stats(),
    }
}

/// Deterministic linearity regression for every [`Framer`]: decoding
/// `2 * frames` buffered frames must copy at most ~2x the bytes of
/// decoding `frames` — a decoder that concatenates or shifts its buffer
/// per frame copies quadratically and trips this. Returns each
/// framer's two byte counts.
///
/// # Panics
///
/// Panics if a large run copies more than 2.5x its small run.
pub fn assert_decode_copies_linear(frames: usize) -> [(Framer, u64, u64); 3] {
    [Framer::Wire, Framer::Jrmp, Framer::Mb].map(|framer| {
        let small = decode_bulk(framer, frames).payload.bytes_copied;
        let large = decode_bulk(framer, frames * 2).payload.bytes_copied;
        assert!(
            (large as f64) <= (small as f64) * 2.5,
            "{framer:?} frame decode copies are superlinear: {frames} frames copy {small} B, \
             {} frames copy {large} B",
            frames * 2
        );
        (framer, small, large)
    })
}

/// What the bridged Figure-11 path did over one measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgedWindow {
    /// Payload bytes copied (the kernel's `payload.bytes_copied`).
    pub bytes_copied: u64,
    /// Messages delivered at the meter.
    pub delivered: u64,
    /// Scheduler entries popped ([`World::events_processed`]).
    pub events: u64,
}

/// Runs the bridged Figure-11 path (the E3 RMI-MB world,
/// [`crate::experiments::rmi_mb_world`]) for 2 virtual seconds after a
/// 30 s warm-up and counts what that window cost. Deterministic: every
/// count is a kernel counter, not a clock.
pub fn bridged_window() -> BridgedWindow {
    let (mut world, meter) = crate::experiments::rmi_mb_world(34);
    world.run_until(SimTime::from_secs(30));
    let copied = world.trace().counter("payload.bytes_copied");
    let (delivered, events) = (meter.count(), world.events_processed());
    world.run_until(SimTime::from_secs(32));
    BridgedWindow {
        bytes_copied: world.trace().counter("payload.bytes_copied") - copied,
        delivered: (meter.count() - delivered) as u64,
        events: world.events_processed() - events,
    }
}

struct FanoutReceiver {
    group: u16,
    bytes: Rc<RefCell<u64>>,
}
impl Process for FanoutReceiver {
    fn name(&self) -> &str {
        "fanout-rx"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.join_group(self.group).expect("join group");
    }
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, d: simnet::Datagram) {
        *self.bytes.borrow_mut() += d.data.len() as u64;
    }
}

struct FanoutSender {
    group: u16,
    sends: usize,
    body: usize,
}
impl Process for FanoutSender {
    fn name(&self) -> &str {
        "fanout-tx"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(5000).expect("bind");
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.sends == 0 {
            return;
        }
        self.sends -= 1;
        ctx.multicast(5000, self.group, vec![0x5A; self.body])
            .expect("multicast");
        ctx.set_timer(SimDuration::from_millis(5), 0);
    }
}

/// Result of one [`multicast_fanout`] run.
#[derive(Debug, Clone, Copy)]
pub struct FanoutRun {
    /// Wall-clock nanoseconds per multicast send.
    pub ns_per_send: f64,
    /// Application bytes delivered across all receivers.
    pub delivered_bytes: u64,
    /// Bytes delivered by sharing the sender's buffer instead of
    /// copying (the `payload.fanout_bytes_shared` counter).
    pub shared_bytes: u64,
    /// Payload copy accounting for the run (deterministic).
    pub payload: PayloadStats,
}

/// One sender multicasting `sends` datagrams of [`PAYLOAD_BODY`] bytes
/// to `receivers` group members.
pub fn multicast_fanout(receivers: usize, sends: usize) -> FanoutRun {
    let mut w = World::new(7);
    let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let bytes = Rc::new(RefCell::new(0u64));
    for i in 0..receivers {
        let n = w.add_node(format!("rx{i}"));
        w.attach(n, seg).expect("attach");
        w.add_process(
            n,
            Box::new(FanoutReceiver {
                group: 1900,
                bytes: Rc::clone(&bytes),
            }),
        );
    }
    let tx = w.add_node("tx");
    w.attach(tx, seg).expect("attach");
    w.add_process(
        tx,
        Box::new(FanoutSender {
            group: 1900,
            sends,
            body: PAYLOAD_BODY,
        }),
    );
    simnet::payload::take_stats();
    let start = Instant::now();
    w.run_until_idle();
    let ns = start.elapsed().as_nanos();
    let delivered = *bytes.borrow();
    assert_eq!(delivered, (PAYLOAD_BODY * receivers * sends) as u64);
    FanoutRun {
        ns_per_send: ns as f64 / sends as f64,
        delivered_bytes: delivered,
        shared_bytes: w.trace().counter("payload.fanout_bytes_shared"),
        payload: PayloadStats {
            allocs: w.trace().counter("payload.allocs"),
            bytes_copied: w.trace().counter("payload.bytes_copied"),
            shared_clones: w.trace().counter("payload.shared_clones"),
        },
    }
}

struct BulkSink {
    received: Rc<RefCell<usize>>,
}
impl Process for BulkSink {
    fn name(&self) -> &str {
        "bulk-sink"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(80).expect("listen");
    }
    fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
        if let StreamEvent::Data(d) = ev {
            *self.received.borrow_mut() += d.len();
        }
    }
}

struct BulkTx {
    target: Addr,
    total: usize,
    sent: usize,
    stream: Option<StreamId>,
}
impl BulkTx {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let stream = self.stream.expect("connected");
        while self.sent < self.total {
            let n = (self.total - self.sent).min(8192);
            match ctx.stream_send(stream, vec![0xC3; n]) {
                Ok(()) => self.sent += n,
                Err(_) => break,
            }
        }
        if self.sent >= self.total {
            ctx.stream_close(stream);
        }
    }
}
impl Process for BulkTx {
    fn name(&self) -> &str {
        "bulk-tx"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = Some(ctx.connect(self.target).expect("connect"));
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
        match ev {
            StreamEvent::Connected | StreamEvent::Writable => self.pump(ctx),
            _ => {}
        }
    }
}

/// One-way bulk transfer of `total` bytes over the 10 Mbps hub with
/// `loss` frame loss (exercising retransmission buffers). Returns wall
/// nanoseconds per transferred KiB.
pub fn stream_bulk_transfer(total: usize, loss: f64) -> f64 {
    let mut w = World::new(99);
    let seg = w.add_segment(SegmentConfig::ethernet_10mbps_hub().with_loss(loss));
    let a = w.add_node("a");
    let b = w.add_node("b");
    w.attach(a, seg).expect("attach");
    w.attach(b, seg).expect("attach");
    let received = Rc::new(RefCell::new(0usize));
    w.add_process(
        b,
        Box::new(BulkSink {
            received: Rc::clone(&received),
        }),
    );
    w.add_process(
        a,
        Box::new(BulkTx {
            target: Addr::new(b, 80),
            total,
            sent: 0,
            stream: None,
        }),
    );
    let start = Instant::now();
    w.run_until(SimTime::from_secs(600));
    let ns = start.elapsed().as_nanos();
    assert_eq!(*received.borrow(), total);
    ns as f64 / (total as f64 / 1024.0)
}

// =====================================================================
// Scheduler micro-benches (timer wheel vs reference heap)
// =====================================================================

/// The plain `(time, seq)` min-heap scheduler the timer wheel replaced,
/// kept as an oracle: [`sched_kernel`] A/Bs the wheel against it, and
/// the wheel's property tests require the identical pop order.
#[derive(Default)]
struct ReferenceHeap {
    /// `(time, seq, item)`; `seq` is unique, so the item never decides.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl ReferenceHeap {
    /// Schedules `item` at `time`, assigning the next sequence number.
    fn push(&mut self, time: SimTime, item: u32) {
        self.heap.push(Reverse((time.as_nanos(), self.seq, item)));
        self.seq += 1;
    }

    /// Removes and returns the earliest entry (FIFO among ties).
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, item))| (SimTime::from_nanos(time), item))
    }
}

#[cfg(test)]
impl ReferenceHeap {
    /// Draws the next sequence number without pushing anything.
    fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedules `item` at `time` under a reserved sequence number.
    fn push_reserved(&mut self, time: SimTime, seq: u64, item: u32) {
        self.heap.push(Reverse((time.as_nanos(), seq, item)));
    }
}

/// The shape of a [`sched_kernel`] schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedShape {
    /// A busy federation: mostly near-future events (frame arrivals,
    /// drain timers within ~65 µs), a slice of mid-range timers, a tail
    /// of 30-second directory TTL re-announcements, and same-tick ties.
    Mixed,
    /// Same-time groups of 64–1,024 entries filed 2^16–2^24 ns ahead, as
    /// a discovery storm re-files its busy processes' backlogs: each
    /// group reaches the near window by cascade, all at once.
    Bursts,
}

impl SchedShape {
    /// Lower-case name, as printed and written to JSON.
    pub fn name(self) -> &'static str {
        match self {
            SchedShape::Mixed => "mixed",
            SchedShape::Bursts => "bursts",
        }
    }
}

/// Result of one [`sched_kernel`] run.
#[derive(Debug, Clone, Copy)]
pub struct SchedKernelRun {
    /// The schedule replayed.
    pub shape: SchedShape,
    /// Mean nanoseconds per pop+push cycle on the timer wheel.
    pub wheel_ns_per_op: f64,
    /// Mean nanoseconds per pop+push cycle on the reference min-heap.
    pub heap_ns_per_op: f64,
    /// Steady-state pending entries during the run.
    pub pending: usize,
    /// Pop+push cycles measured per structure.
    pub ops: usize,
}

/// Replays an identical synthetic simulator schedule of the given
/// `shape` through the [`simnet::TimerWheel`] and the `ReferenceHeap`
/// it replaced, and reports the mean cost of one pop+push cycle.
///
/// Each push lands at an offset from the time of the pop before it.
/// Offsets are drawn once from a seeded RNG, and pop order is the same
/// on both structures, so both see byte-identical input.
pub fn sched_kernel(shape: SchedShape, pending: usize, ops: usize) -> SchedKernelRun {
    use simnet::{SimRng, TimerWheel};

    /// Offset meaning "at the previous push's time" (never behind the
    /// last pop): the rest of a same-time group.
    const SAME: u64 = u64::MAX;

    let offsets: Vec<u64> = {
        let mut rng = SimRng::seed_from_u64(0x5eed_5c4e_d01e);
        let mut offsets = Vec::with_capacity(pending + ops);
        while offsets.len() < pending + ops {
            match shape {
                SchedShape::Mixed => offsets.push(match rng.gen_range(0..10u32) {
                    0 => 0,                                // same-tick burst
                    1..=6 => rng.gen_range(1..1u64 << 16), // near window
                    7 | 8 => rng.gen_range(1..1u64 << 24), // mid-range timer
                    _ => 30_000_000_000,                   // directory TTL
                }),
                SchedShape::Bursts => {
                    offsets.push(rng.gen_range(1u64 << 16..1u64 << 24));
                    let size = rng.gen_range(64..=1_024usize);
                    offsets.extend(std::iter::repeat_n(SAME, size - 1));
                }
            }
        }
        offsets.truncate(pending + ops);
        offsets
    };

    fn run<Q>(
        offsets: &[u64],
        pending: usize,
        ops: usize,
        mut push: impl FnMut(&mut Q, SimTime, u32),
        mut pop: impl FnMut(&mut Q) -> Option<(SimTime, u32)>,
        q: &mut Q,
    ) -> f64 {
        let mut now = 0u64;
        let mut last = 0u64;
        let mut at = |now: u64, off: u64| {
            last = if off == SAME {
                last.max(now)
            } else {
                now + off
            };
            SimTime::from_nanos(last)
        };
        for (i, &off) in offsets.iter().take(pending).enumerate() {
            push(q, at(now, off), i as u32);
        }
        let start = Instant::now();
        for (i, &off) in offsets.iter().skip(pending).enumerate() {
            let (t, id) = pop(q).expect("queue stays non-empty");
            black_box(id);
            now = t.as_nanos();
            push(q, at(now, off), i as u32);
        }
        start.elapsed().as_nanos() as f64 / ops as f64
    }

    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let wheel_ns = run(
        &offsets,
        pending,
        ops,
        |q, t, id| q.push(t, id),
        |q| q.pop(),
        &mut wheel,
    );
    let mut heap = ReferenceHeap::default();
    let heap_ns = run(
        &offsets,
        pending,
        ops,
        |q, t, id| q.push(t, id),
        |q| q.pop(),
        &mut heap,
    );
    SchedKernelRun {
        shape,
        wheel_ns_per_op: wheel_ns,
        heap_ns_per_op: heap_ns,
        pending,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::ReferenceHeap;
    use simnet::{check_cases, SimRng, SimTime, TimerWheel};

    #[test]
    fn bench_function_runs() {
        // Smoke: the harness terminates and reports an ordered spread.
        let spread = super::bench_function("noop_add", || 1u64.wrapping_add(2));
        assert!(spread.samples > 0);
        assert!(spread.p10_ns <= spread.median_ns && spread.median_ns <= spread.p90_ns);
    }

    #[test]
    fn decode_copies_stay_linear() {
        for (framer, small, large) in super::assert_decode_copies_linear(64) {
            assert!(
                small > 0,
                "instrumentation must observe the {framer:?} decode"
            );
            assert!(large > small);
        }
    }

    #[test]
    fn fanout_shares_the_sent_buffer() {
        let run = super::multicast_fanout(8, 4);
        // 7 of 8 deliveries per send reuse the sender's buffer.
        assert_eq!(
            run.shared_bytes,
            (super::PAYLOAD_BODY * 7 * 4) as u64,
            "fan-out must share, not copy, the multicast buffer"
        );
    }

    /// Draws a schedule offset exercising every tier of the wheel:
    /// same-tick ties, the 2^16 ns near window and each level up to the
    /// top two.
    fn random_offset(rng: &mut SimRng) -> u64 {
        match rng.gen_range(0..6u32) {
            0 => 0,                            // same tick as `now`
            1 => rng.gen_range(0..1u64 << 16), // near window
            2 => rng.gen_range(0..1u64 << 30), // low levels
            3 => rng.gen_range(0..1u64 << 45), // high levels
            4 => rng.gen_range(0..1u64 << 55), // level 6
            _ => rng.gen_range(0..1u64 << 60), // level 7
        }
    }

    /// A same-time burst of 64–2,000 entries filed 2^16–2^24 ns ahead of
    /// `now`, so it reaches the near window by cascade: the shape of the
    /// backlogs a busy horizon re-files in bulk.
    fn burst(rng: &mut SimRng, now: u64) -> (u64, u32) {
        let t = now + rng.gen_range(1u64 << 16..1u64 << 24);
        (t, rng.gen_range(64..=2_000u32))
    }

    #[test]
    fn wheel_matches_reference_heap() {
        check_cases("wheel_matches_reference_heap", 64, |_case, rng| {
            let mut wheel = TimerWheel::new();
            let mut reference = ReferenceHeap::default();
            let mut now = 0u64;
            let mut next_id = 0u32;
            // Cancellation is modeled the way the World models it: a
            // set of dead ids filtered at delivery, identically on
            // both structures.
            let mut cancelled = std::collections::HashSet::new();
            // Entries pushed behind the horizon, which pop before `now`.
            let mut late = std::collections::HashSet::new();
            // Reserved-but-unpushed entries, as a stream's lazily armed
            // retransmission timer holds them: `(time, wheel seq,
            // reference seq, id)`. Each is pushed later while its time
            // is still ahead of `now` (or re-aimed into the current,
            // already cascaded window), or abandoned like a disarmed
            // timer.
            let mut reserved: Vec<(u64, u64, u64, u32)> = Vec::new();
            let ops = rng.gen_range(50..400usize);
            for _ in 0..ops {
                let roll = rng.gen_range(0..100u32);
                if roll < 12 {
                    let t = now + random_offset(rng);
                    let (ws, rs) = (wheel.reserve_seq(), reference.reserve_seq());
                    reserved.push((t, ws, rs, next_id));
                    next_id += 1;
                } else if roll < 24 && !reserved.is_empty() {
                    let i = rng.gen_range(0..reserved.len());
                    let (t, ws, rs, id) = reserved.swap_remove(i);
                    let t = if rng.gen_bool(0.3) {
                        now + rng.gen_range(1..1u64 << 12)
                    } else {
                        t
                    };
                    if t > now && rng.gen_bool(0.8) {
                        wheel.push_reserved(SimTime::from_nanos(t), ws, id);
                        reference.push_reserved(SimTime::from_nanos(t), rs, id);
                    }
                } else if roll < 28 {
                    let (t, size) = burst(rng, now);
                    for _ in 0..size {
                        wheel.push(SimTime::from_nanos(t), next_id);
                        reference.push(SimTime::from_nanos(t), next_id);
                        next_id += 1;
                    }
                } else if roll < 31 {
                    let t = now.saturating_sub(rng.gen_range(1..1u64 << 20));
                    wheel.push(SimTime::from_nanos(t), next_id);
                    reference.push(SimTime::from_nanos(t), next_id);
                    late.insert(next_id);
                    next_id += 1;
                } else if roll < 64 || wheel.is_empty() {
                    // Push a burst (bursts create same-tick ties).
                    let burst = rng.gen_range(1..4u32);
                    let t = now + random_offset(rng);
                    for _ in 0..burst {
                        let id = next_id;
                        next_id += 1;
                        wheel.push(SimTime::from_nanos(t), id);
                        reference.push(SimTime::from_nanos(t), id);
                        if rng.gen_bool(0.1) {
                            cancelled.insert(id);
                        }
                    }
                } else {
                    // Pop a few, so a cascaded burst is consumed in parts
                    // with pushes landing between them.
                    for _ in 0..rng.gen_range(1..200u32) {
                        let got = wheel.pop().map(|(t, id)| (t.as_nanos(), id));
                        let want = reference.pop().map(|(t, id)| (t.as_nanos(), id));
                        assert_eq!(got, want, "pop order diverged");
                        let Some((t, id)) = got else { break };
                        if !late.remove(&id) {
                            assert!(t >= now, "time went backwards");
                            now = t;
                        }
                        // Delivery-time cancellation check, as in World.
                        let _ = cancelled.remove(&id);
                    }
                }
                assert_eq!(wheel.len(), reference.heap.len());
            }
            for (t, ws, rs, id) in reserved {
                if t > now {
                    wheel.push_reserved(SimTime::from_nanos(t), ws, id);
                    reference.push_reserved(SimTime::from_nanos(t), rs, id);
                }
            }
            // Drain both completely; tails must agree too.
            loop {
                let got = wheel.pop().map(|(t, id)| (t.as_nanos(), id));
                let want = reference.pop().map(|(t, id)| (t.as_nanos(), id));
                assert_eq!(got, want, "drain order diverged");
                if got.is_none() {
                    break;
                }
            }
            assert!(wheel.is_empty());
        });
    }

    #[test]
    fn pop_run_matches_reference_heap_batching() {
        check_cases("pop_run_matches_reference_heap", 32, |_case, rng| {
            let mut wheel = TimerWheel::new();
            let mut reference = ReferenceHeap::default();
            let mut now = 0u64;
            let mut next_id = 0u32;
            let mut push = |wheel: &mut TimerWheel<u32>, reference: &mut ReferenceHeap, t| {
                wheel.push(SimTime::from_nanos(t), next_id);
                reference.push(SimTime::from_nanos(t), next_id);
                next_id += 1;
            };
            for id in 0..200u32 {
                let t = now.max(rng.gen_range(0..1u64 << 40));
                // Cluster times so runs form.
                let t = t & !0xFFF;
                push(&mut wheel, &mut reference, t);
                if id % 16 == 0 {
                    now = t;
                }
            }
            for _ in 0..4 {
                let (t, size) = burst(rng, now);
                for _ in 0..size {
                    push(&mut wheel, &mut reference, t);
                }
            }
            let mut reserved = Vec::new();
            // Reserved entries count their ids down from the top, apart
            // from the ones `push` hands out.
            let mut reserved_id = u32::MAX;
            let mut run = Vec::new();
            let mut runs = 0;
            while let Some(t) = wheel.pop_run(&mut run) {
                for id in run.drain(..) {
                    assert_eq!(reference.pop(), Some((t, id)));
                }
                // The run was whole: nothing else is pending at `t`.
                assert_ne!(reference.heap.peek().map(|r| r.0 .0), Some(t.as_nanos()));
                now = t.as_nanos();
                runs += 1;
                if runs > 400 {
                    continue;
                }
                // Between runs: pushes into the current (cascaded) window,
                // at its instant or just after, bursts that will cascade,
                // pushes behind the horizon, and reserved numbers pushed
                // into the window once it has cascaded.
                match rng.gen_range(0..8u32) {
                    0 => push(&mut wheel, &mut reference, now),
                    1 => push(
                        &mut wheel,
                        &mut reference,
                        now + rng.gen_range(1..1u64 << 12),
                    ),
                    2 => {
                        let (t, size) = burst(rng, now);
                        for _ in 0..size {
                            push(&mut wheel, &mut reference, t);
                        }
                    }
                    3 => {
                        let t = now.saturating_sub(rng.gen_range(1..1u64 << 20));
                        push(&mut wheel, &mut reference, t);
                    }
                    4 => reserved.push((wheel.reserve_seq(), reference.reserve_seq())),
                    5 => {
                        if let Some((ws, rs)) = reserved.pop() {
                            let t = SimTime::from_nanos(now + rng.gen_range(1..1u64 << 12));
                            wheel.push_reserved(t, ws, reserved_id);
                            reference.push_reserved(t, rs, reserved_id);
                            reserved_id -= 1;
                        }
                    }
                    _ => {}
                }
            }
            assert_eq!(reference.pop(), None);
        });
    }
}
