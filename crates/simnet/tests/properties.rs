//! Property-based tests of simulator invariants: reliable delivery under
//! loss, medium conservation, and determinism.

use std::cell::RefCell;
use std::rc::Rc;

/// Span stage names the span-log properties draw from.
const STAGES: [&str; 7] = [
    "stage0", "stage1", "stage2", "stage3", "stage4", "stage5", "stage6",
];
use simnet::{
    check_cases, Addr, Ctx, Process, SegmentConfig, SimDuration, SimError, SimTime, StreamEvent,
    StreamId, World,
};

/// A sink that records received bytes and close events.
struct Sink {
    received: Rc<RefCell<Vec<u8>>>,
    closed: Rc<RefCell<bool>>,
}

impl Process for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(80).unwrap();
    }
    fn on_stream(&mut self, _ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
        match ev {
            StreamEvent::Data(d) => self.received.borrow_mut().extend(d),
            StreamEvent::Closed => *self.closed.borrow_mut() = true,
            _ => {}
        }
    }
}

/// A sender that pushes a fixed payload in caller-chosen chunks.
struct Sender {
    target: Addr,
    payload: Vec<u8>,
    chunk: usize,
    sent: usize,
    stream: Option<StreamId>,
}

impl Sender {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let stream = self.stream.expect("connected");
        while self.sent < self.payload.len() {
            let end = (self.sent + self.chunk).min(self.payload.len());
            match ctx.stream_send(stream, self.payload[self.sent..end].to_vec()) {
                Ok(()) => self.sent = end,
                Err(SimError::StreamBufferFull(_)) => return,
                Err(e) => panic!("send failed: {e}"),
            }
        }
        ctx.stream_close(stream);
    }
}

impl Process for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = Some(ctx.connect(self.target).unwrap());
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
        if matches!(ev, StreamEvent::Connected | StreamEvent::Writable) {
            self.pump(ctx);
        }
    }
}

fn transfer(seed: u64, loss: f64, payload: Vec<u8>, chunk: usize) -> (Vec<u8>, bool) {
    let mut world = World::new(seed);
    let seg = world.add_segment(SegmentConfig::ethernet_10mbps_hub().with_loss(loss));
    let a = world.add_node("a");
    let b = world.add_node("b");
    world.attach(a, seg).unwrap();
    world.attach(b, seg).unwrap();
    let received = Rc::new(RefCell::new(Vec::new()));
    let closed = Rc::new(RefCell::new(false));
    world.add_process(
        b,
        Box::new(Sink {
            received: Rc::clone(&received),
            closed: Rc::clone(&closed),
        }),
    );
    world.add_process(
        a,
        Box::new(Sender {
            target: Addr::new(b, 80),
            payload,
            chunk: chunk.max(1),
            sent: 0,
            stream: None,
        }),
    );
    world.run_until(SimTime::from_secs(300));
    let r = received.borrow().clone();
    let c = *closed.borrow();
    (r, c)
}

/// Streams deliver every byte, in order, exactly once — under any
/// payload, any chunking, and up to 10% frame loss.
#[test]
fn stream_delivery_is_exact_under_loss() {
    check_cases("stream_delivery_is_exact_under_loss", 24, |_, rng| {
        let seed = rng.gen_range(0u64..1000);
        let loss = rng.gen_f64() * 0.10;
        let len = rng.gen_range(1usize..20_000);
        let payload = rng.gen_bytes(len);
        let chunk = rng.gen_range(1usize..4096);
        let (received, closed) = transfer(seed, loss, payload.clone(), chunk);
        assert_eq!(received, payload);
        assert!(closed, "FIN delivered");
    });
}

/// The same seed and inputs give byte-identical outcomes (trace
/// event times included): the simulator is deterministic.
#[test]
fn same_seed_same_world() {
    check_cases("same_seed_same_world", 24, |_, rng| {
        let seed = rng.gen_range(0u64..1000);
        let len = rng.gen_range(1usize..5_000);
        let payload = rng.gen_bytes(len);
        let a = transfer(seed, 0.05, payload.clone(), 512);
        let b = transfer(seed, 0.05, payload, 512);
        assert_eq!(a, b);
    });
}

/// Medium conservation: a segment's busy time never exceeds elapsed
/// virtual time (a half-duplex medium cannot be >100% utilized).
#[test]
fn medium_utilization_bounded() {
    check_cases("medium_utilization_bounded", 24, |_, rng| {
        let seed = rng.gen_range(0u64..1000);
        let len = rng.gen_range(1000usize..50_000);
        let payload = rng.gen_bytes(len);
        let mut world = World::new(seed);
        let seg = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.attach(a, seg).unwrap();
        world.attach(b, seg).unwrap();
        let received = Rc::new(RefCell::new(Vec::new()));
        let closed = Rc::new(RefCell::new(false));
        world.add_process(b, Box::new(Sink { received, closed }));
        world.add_process(
            a,
            Box::new(Sender {
                target: Addr::new(b, 80),
                payload,
                chunk: 1024,
                sent: 0,
                stream: None,
            }),
        );
        world.run_until(SimTime::from_secs(120));
        let stats = world.segment_stats(seg).unwrap();
        let elapsed = SimDuration::from_secs(120);
        assert!(stats.busy <= elapsed, "busy {} > elapsed", stats.busy);
        assert!(stats.utilization(elapsed) <= 1.0);
    });
}

/// Timers fire in order regardless of insertion order.
#[test]
fn timer_ordering_is_total() {
    struct Many {
        fired: Rc<RefCell<Vec<u64>>>,
    }
    impl Process for Many {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Insert out of order.
            for (delay_ms, token) in [(30u64, 3u64), (10, 1), (20, 2), (40, 4), (15, 15)] {
                ctx.set_timer(SimDuration::from_millis(delay_ms), token);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.fired.borrow_mut().push(token);
        }
    }
    let mut world = World::new(0);
    let n = world.add_node("n");
    let fired = Rc::new(RefCell::new(Vec::new()));
    world.add_process(
        n,
        Box::new(Many {
            fired: Rc::clone(&fired),
        }),
    );
    world.run_until_idle();
    assert_eq!(fired.borrow().as_slice(), &[1, 15, 2, 3, 4]);
}

/// A sender that streams zero-copy slices of one shared [`Payload`].
struct PayloadSender {
    target: Addr,
    payload: simnet::Payload,
    chunk: usize,
    sent: usize,
    stream: Option<StreamId>,
}

impl PayloadSender {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let stream = self.stream.expect("connected");
        while self.sent < self.payload.len() {
            let end = (self.sent + self.chunk).min(self.payload.len());
            match ctx.stream_send(stream, self.payload.slice(self.sent..end)) {
                Ok(()) => self.sent = end,
                Err(SimError::StreamBufferFull(_)) => return,
                Err(e) => panic!("send failed: {e}"),
            }
        }
        ctx.stream_close(stream);
    }
}

impl Process for PayloadSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = Some(ctx.connect(self.target).unwrap());
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, _s: StreamId, ev: StreamEvent) {
        if matches!(ev, StreamEvent::Connected | StreamEvent::Writable) {
            self.pump(ctx);
        }
    }
}

/// Random slice/split/extend pipelines over a [`Payload`] agree with the
/// same operations on an eagerly-copied `Vec<u8>` model.
#[test]
fn payload_views_match_vec_model() {
    check_cases("payload_views_match_vec_model", 48, |_, rng| {
        let len = rng.gen_range(0usize..4096);
        let bytes = rng.gen_bytes(len);
        let mut p = simnet::Payload::from_vec(bytes.clone());
        let mut model = bytes;
        for _ in 0..8 {
            match rng.gen_range(0u32..3) {
                0 => {
                    let a = rng.gen_range(0usize..=model.len());
                    let b = rng.gen_range(a..=model.len());
                    p = p.slice(a..b);
                    model = model[a..b].to_vec();
                }
                1 => {
                    let n = rng.gen_range(0usize..=model.len());
                    let head = p.split_to(n);
                    let model_head: Vec<u8> = model.drain(..n).collect();
                    assert_eq!(head, model_head[..], "split_to head");
                }
                _ => {
                    let extra_len = rng.gen_range(0usize..64);
                    let extra = rng.gen_bytes(extra_len);
                    let mut b = simnet::PayloadBuilder::new();
                    b.extend_from_slice(&p);
                    b.extend_from_slice(&extra);
                    p = b.freeze();
                    model.extend_from_slice(&extra);
                }
            }
            assert_eq!(p, model[..], "payload diverged from model");
        }
    });
}

/// Cloning and slicing a [`Payload`] share the backing buffer (no bytes
/// move), and iteration equals slice access.
#[test]
fn payload_clones_are_cheap_and_identical() {
    check_cases("payload_clones_are_cheap_and_identical", 24, |_, rng| {
        let len = rng.gen_range(1usize..4096);
        let bytes = rng.gen_bytes(len);
        let p = simnet::Payload::from_vec(bytes);
        simnet::payload::take_stats();
        let c = p.clone();
        let a = rng.gen_range(0usize..len);
        let b = rng.gen_range(a..=len);
        let s = p.slice(a..b);
        let moved = simnet::payload::take_stats().bytes_copied;
        assert_eq!(moved, 0, "clone/slice must not copy bytes");
        assert!(c.shares_buffer(&p), "clone shares the buffer");
        assert!(b == a || s.shares_buffer(&p), "slice shares the buffer");
        assert_eq!(c, p);
        assert_eq!(s, p[a..b]);
        let collected: Vec<u8> = s.clone().into_iter().collect();
        assert_eq!(collected, &p[a..b]);
    });
}

/// [`ChunkQueue`] take/peek over arbitrary chunkings agree with a flat
/// byte model.
#[test]
fn chunk_queue_matches_flat_model() {
    check_cases("chunk_queue_matches_flat_model", 32, |_, rng| {
        let len = rng.gen_range(0usize..8192);
        let bytes = rng.gen_bytes(len);
        let mut q = simnet::ChunkQueue::new();
        let mut fed = 0;
        while fed < len {
            let n = rng.gen_range(1usize..=(len - fed).min(512));
            q.push(simnet::Payload::copy_from_slice(&bytes[fed..fed + n]));
            fed += n;
        }
        let mut off = 0;
        while off < len {
            let want = rng.gen_range(1usize..=(len - off).min(777));
            let mut peeked = vec![0u8; want];
            let got = q.peek_into(&mut peeked);
            assert_eq!(got, want.min(q.len()));
            assert_eq!(&peeked[..got], &bytes[off..off + got], "peek_into");
            let taken = q.take(want);
            assert_eq!(taken, bytes[off..off + want], "take");
            off += want;
        }
        assert!(q.is_empty());
    });
}

/// Span trees reconstructed from arbitrary begin/end interleavings are
/// always well-formed, at any journal capacity: every retained span
/// lands in exactly one tree, unclosed spans are reported, ending an
/// evicted, already-ended or `NONE` id is a no-op, and reconstruction
/// never panics.
#[test]
fn span_trees_are_well_formed_under_any_interleaving() {
    check_cases(
        "span_trees_are_well_formed_under_any_interleaving",
        48,
        |_, rng| {
            // Small capacities make the ring evict, open spans included.
            let mut trace = simnet::Trace::new(rng.gen_range(2usize..=64));
            let corrs = [0u64, 7, 7 << 32, 0xbeef];
            let mut open: Vec<simnet::SpanId> = Vec::new();
            let mut ended = std::collections::BTreeSet::new();
            let mut recorded = 0u64;
            let mut now = 0u64;
            let ops = rng.gen_range(1usize..200);
            for i in 0..ops {
                now += rng.gen_range(0u64..1_000_000);
                let t = SimTime::from_nanos(now);
                let roll = rng.gen_range(0u32..10);
                let corr = corrs[rng.gen_range(0usize..corrs.len())];
                if roll < 5 || open.is_empty() {
                    let id = trace.span_begin(corr, t, "prop", STAGES[i % 7], "");
                    open.push(id);
                    recorded += 1;
                } else if roll == 5 {
                    let id = trace.span(corr, t, "prop", STAGES[i % 7], "");
                    assert_eq!(trace.span_end(id, t), None, "instant spans are closed");
                    recorded += 1;
                } else {
                    // End a random open span — not necessarily the
                    // innermost — and sometimes end it again.
                    let idx = rng.gen_range(0usize..open.len());
                    let id = if roll == 9 {
                        open[idx]
                    } else {
                        open.remove(idx)
                    };
                    let retained = trace.spans().first().is_some_and(|s| id >= s.id);
                    let live = retained && !ended.contains(&id);
                    assert_eq!(trace.span_end(id, t).is_some(), live, "end of {id}");
                    assert_eq!(trace.span_end(id, t), None, "double end of {id}");
                    assert_eq!(trace.span_end(simnet::SpanId::NONE, t), None);
                    ended.insert(id);
                }
            }

            let spans = trace.spans();
            assert_eq!(
                trace.ring_overwrites() + spans.len() as u64,
                recorded,
                "every span is retained or counted as overwritten"
            );
            let trees = simnet::SpanTree::build_all(spans);
            let total: usize = trees.iter().map(simnet::SpanTree::span_count).sum();
            assert_eq!(total, spans.len(), "every span lands in exactly one tree");
            let unclosed: u64 = trees.iter().map(|t| t.unclosed).sum();
            assert_eq!(unclosed as usize, trace.open_spans(), "unclosed reported");
            let open_records = spans.iter().filter(|s| s.end.is_none()).count();
            assert_eq!(trace.open_spans(), open_records, "open records");
            for tree in &trees {
                assert!(spans.iter().any(|s| s.corr == tree.corr));
            }
        },
    );
}

/// The Perfetto and folded-stack exporters are pure functions of the
/// span log: replaying the same randomly generated begin/end schedule
/// into a fresh trace exports byte-identical artifacts.
#[test]
fn trace_exports_are_deterministic() {
    check_cases("trace_exports_are_deterministic", 24, |_, rng| {
        let ops: Vec<(u64, u64, u32)> = (0..rng.gen_range(1usize..120))
            .map(|_| {
                (
                    rng.gen_range(0u64..4),
                    rng.gen_range(0u64..1_000_000),
                    rng.gen_range(0u32..10),
                )
            })
            .collect();
        let build = |ops: &[(u64, u64, u32)]| {
            let mut trace = simnet::Trace::new(1024);
            let mut open: Vec<simnet::SpanId> = Vec::new();
            let mut now = 0u64;
            for (i, (corr, dt, roll)) in ops.iter().enumerate() {
                now += dt;
                let t = SimTime::from_nanos(now);
                if *roll < 6 || open.is_empty() {
                    open.push(trace.span_begin(*corr, t, format!("src{corr}"), STAGES[i % 5], "d"));
                } else {
                    let id = open.remove(*roll as usize % open.len());
                    trace.span_end(id, t);
                }
            }
            (
                simnet::perfetto_trace_json(trace.spans()).to_string(),
                simnet::folded_stacks(trace.spans()),
            )
        };
        let (p1, f1) = build(&ops);
        let (p2, f2) = build(&ops);
        assert_eq!(p1, p2, "perfetto export must be byte-identical");
        assert_eq!(f1, f2, "folded export must be byte-identical");
        assert!(p1.contains("\"traceEvents\""));
    });
}

/// Payload accounting is per-run: bytes moved by one world — or by stray
/// work between runs — never leak into another world's snapshot when
/// both share a thread.
#[test]
fn payload_stats_do_not_leak_across_worlds() {
    // World A moves real bytes; its run folds the thread-local
    // accounting into its own metrics.
    let (received, _) = transfer(1, 0.0, vec![7u8; 10_000], 512);
    assert_eq!(received.len(), 10_000);

    // Stray payload work with no world running.
    drop(simnet::Payload::copy_from_slice(&[0u8; 4096]));

    // World B never touches payloads: its snapshot must show none.
    struct Idle;
    impl Process for Idle {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
    }
    let mut world = World::new(2);
    let n = world.add_node("n");
    world.add_process(n, Box::new(Idle));
    world.run_until(SimTime::from_secs(5));
    let snap = world.trace().metrics().snapshot();
    for key in [
        "payload.bytes_copied",
        "payload.allocs",
        "payload.shared_clones",
    ] {
        assert_eq!(
            snap.counters.get(key),
            None,
            "world B inherited another world's {key}: {:?}",
            snap.counters
        );
    }
}

/// Streams fed zero-copy [`Payload`] slices of one shared buffer still
/// deliver every byte exactly once under loss — retransmissions must not
/// depend on the sender's buffer being private.
#[test]
fn shared_payload_stream_reassembles_under_loss() {
    check_cases(
        "shared_payload_stream_reassembles_under_loss",
        16,
        |_, rng| {
            let seed = rng.gen_range(0u64..1000);
            let loss = rng.gen_f64() * 0.10;
            let len = rng.gen_range(1usize..20_000);
            let payload = rng.gen_bytes(len);
            let chunk = rng.gen_range(1usize..4096);

            let mut world = World::new(seed);
            let seg = world.add_segment(SegmentConfig::ethernet_10mbps_hub().with_loss(loss));
            let a = world.add_node("a");
            let b = world.add_node("b");
            world.attach(a, seg).unwrap();
            world.attach(b, seg).unwrap();
            let received = Rc::new(RefCell::new(Vec::new()));
            let closed = Rc::new(RefCell::new(false));
            world.add_process(
                b,
                Box::new(Sink {
                    received: Rc::clone(&received),
                    closed: Rc::clone(&closed),
                }),
            );
            world.add_process(
                a,
                Box::new(PayloadSender {
                    target: Addr::new(b, 80),
                    payload: simnet::Payload::from_vec(payload.clone()),
                    chunk: chunk.max(1),
                    sent: 0,
                    stream: None,
                }),
            );
            world.run_until(SimTime::from_secs(300));
            assert_eq!(*received.borrow(), payload);
            assert!(*closed.borrow(), "FIN delivered");
        },
    );
}
