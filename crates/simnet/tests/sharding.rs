//! Sharded-kernel equivalence and safety battery.
//!
//! The core property: for a random multi-wing topology, running the
//! federation on 1, 2 or 4 shards produces byte-identical per-wing
//! observations — every delivery (times included), every wing-scoped
//! trace line, every wing-scoped span record, every wing-scoped counter. The partitioning
//! is allowed to change *where* work runs, never *what* happens or
//! *when*. The incident plane rides the same property: bundles the
//! trigger plane snapshots must be byte-identical across runs at any
//! shard count.

use simnet::shard::{run_sharded, ShardPlan};
use simnet::{
    check_cases, Addr, BurnRateRule, Ctx, Datagram, Objective, Process, SamplerConfig,
    SegmentConfig, ShardConfig, SimDuration, SimError, SimTime, SloKind, TelemetryConfig, World,
};

/// Port the local sink listens on inside each wing.
const SINK_PORT: u16 = 9;
/// Port the cross-shard ingress binds inside each wing.
const INGRESS_PORT: u16 = 41;

/// One randomly-drawn wing of the federation.
#[derive(Clone)]
struct WingSpec {
    per_burst: u32,
    bursts: u32,
    size: usize,
    interval: SimDuration,
    sink_cost: SimDuration,
}

/// Sends `per_burst` local datagrams plus one cross-shard message per
/// timer firing, `bursts` times, logging everything wing-scoped.
struct WingSender {
    wing: usize,
    spec: WingSpec,
    local: Addr,
    dst_shard: u16,
    dst_inlet: u16,
    seq: u8,
}

impl Process for WingSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(7).unwrap();
        let interval = self.spec.interval;
        ctx.set_timer(interval, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for _ in 0..self.spec.per_burst {
            ctx.send_to(7, self.local, vec![self.seq; self.spec.size])
                .unwrap();
            self.seq = self.seq.wrapping_add(1);
        }
        ctx.send_shard(self.dst_shard, self.dst_inlet, vec![self.seq; 4])
            .unwrap();
        ctx.bump(&format!("wing{}.sent", self.wing), 1);
        self.spec.bursts -= 1;
        if self.spec.bursts > 0 {
            let interval = self.spec.interval;
            ctx.set_timer(interval, 0);
        }
    }
}

/// Records local deliveries; the optional CPU cost exercises the
/// busy-deferral path inside a shard's window.
struct WingSink {
    wing: usize,
    name: String,
    cost: SimDuration,
}

impl Process for WingSink {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(SINK_PORT).unwrap();
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
        ctx.bump(&format!("wing{}.local_recv", self.wing), 1);
        ctx.trace(format!("local {} {}", d.data[0], d.data.len()));
        // Correlate on the payload sequence byte: span records become
        // part of the per-wing history the battery diffs across shard
        // counts.
        ctx.span(
            1 + u64::from(d.data[0]),
            "wing.local.recv",
            format!("bytes={}", d.data.len()),
        );
        if !self.cost.is_zero() {
            ctx.busy(self.cost);
        }
    }
}

/// Receives the ring's cross-shard traffic for one wing. Deliberately
/// does not record the source address: a cross arrival's source port
/// encodes the sending shard id, which legitimately differs across
/// shard counts.
struct WingIngress {
    wing: usize,
    name: String,
}

impl Process for WingIngress {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.register_shard_inlet(self.wing as u16, INGRESS_PORT)
            .unwrap();
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
        ctx.bump(&format!("wing{}.cross_recv", self.wing), 1);
        ctx.trace(format!("cross {} {}", d.data[0], d.data.len()));
        ctx.span(
            1 + u64::from(d.data[0]),
            "wing.cross.recv",
            format!("bytes={}", d.data.len()),
        );
    }
}

/// Adds wing `w` to a world: a switched segment, a sink, a cross-shard
/// ingress, and a sender that feeds the local sink and the next wing in
/// the ring. Full-duplex, lossless media only: contention backoff and
/// loss draw from the world RNG, whose stream is deliberately per-shard.
fn add_wing(world: &mut World, w: usize, spec: &WingSpec, dst_shard: u16, dst_inlet: u16) {
    let seg = world.add_segment(SegmentConfig::ethernet_100mbps_switch());
    let sink_node = world.add_node(format!("w{w}.sink-host"));
    let send_node = world.add_node(format!("w{w}.send-host"));
    world.attach(sink_node, seg).unwrap();
    world.attach(send_node, seg).unwrap();
    world.add_process(
        sink_node,
        Box::new(WingSink {
            wing: w,
            name: format!("w{w}.sink"),
            cost: spec.sink_cost,
        }),
    );
    world.add_process(
        sink_node,
        Box::new(WingIngress {
            wing: w,
            name: format!("w{w}.ingress"),
        }),
    );
    world.add_process(
        send_node,
        Box::new(WingSender {
            wing: w,
            spec: spec.clone(),
            local: Addr::new(sink_node, SINK_PORT),
            dst_shard,
            dst_inlet,
            seq: 0,
        }),
    );
}

/// Everything one wing observed: trace lines from its processes, its
/// span records (times, stages, details, correlation ids — span ids are
/// excluded, since allocation order across wings sharing a world is not
/// wing-scoped), and its `wing{w}.*` counters.
type WingObs = (Vec<String>, Vec<String>, Vec<(String, u64)>);

/// Runs the `specs` federation on `shards` shards and returns per-wing
/// observations, merged across shard worlds.
fn run_wings(
    specs: &[WingSpec],
    shards: u16,
    lookahead: SimDuration,
    link_latency: SimDuration,
    seed: u64,
) -> Vec<WingObs> {
    let wings = specs.len();
    let plan = ShardPlan::new(shards, lookahead)
        .with_link_latency(link_latency)
        .without_wall_health();
    let report = run_sharded(
        &plan,
        seed,
        SimTime::from_secs(2),
        |world, info| {
            for (w, spec) in specs.iter().enumerate() {
                if w % info.shards as usize != info.shard as usize {
                    continue;
                }
                let dst_wing = (w + 1) % wings;
                let dst_shard = (dst_wing % info.shards as usize) as u16;
                add_wing(world, w, spec, dst_shard, dst_wing as u16);
            }
            Ok(())
        },
        |world, info| {
            let mut per_wing: Vec<(usize, WingObs)> = Vec::new();
            for w in 0..wings {
                if w % info.shards as usize != info.shard as usize {
                    continue;
                }
                let tag = format!("w{w}.");
                let lines: Vec<String> = world
                    .trace()
                    .events()
                    .iter()
                    .filter(|e| e.source.starts_with(&tag))
                    .map(|e| format!("{} {} {}", e.time.as_nanos(), e.source, e.message))
                    .collect();
                let spans: Vec<String> = world
                    .trace()
                    .spans()
                    .filter(|s| s.source.starts_with(&tag))
                    .map(|s| {
                        format!(
                            "{} {} {} {} corr={}",
                            s.start.as_nanos(),
                            s.source,
                            s.stage,
                            s.detail,
                            s.corr
                        )
                    })
                    .collect();
                let prefix = format!("wing{w}.");
                let counters: Vec<(String, u64)> = world
                    .trace()
                    .metrics()
                    .snapshot()
                    .counters
                    .into_iter()
                    .filter(|(k, _)| k.starts_with(&prefix))
                    .collect();
                per_wing.push((w, (lines, spans, counters)));
            }
            per_wing
        },
    )
    .expect("sharded run");

    let mut merged: Vec<Option<WingObs>> = (0..wings).map(|_| None).collect();
    for shard in report.shards {
        for (w, obs) in shard.result {
            merged[w] = Some(obs);
        }
    }
    merged
        .into_iter()
        .map(|o| o.expect("every wing collected"))
        .collect()
}

/// For any random ring federation, the per-wing observable history is
/// independent of the shard count.
#[test]
fn sharded_run_matches_single_threaded() {
    check_cases("sharded_run_matches_single_threaded", 16, |_, rng| {
        let wings = rng.gen_range(1usize..6);
        let specs: Vec<WingSpec> = (0..wings)
            .map(|_| WingSpec {
                per_burst: rng.gen_range(1u32..8),
                bursts: rng.gen_range(2u32..6),
                size: rng.gen_range(1usize..256),
                interval: SimDuration::from_micros(rng.gen_range(500u64..20_000)),
                sink_cost: if rng.gen_bool(0.5) {
                    SimDuration::from_micros(rng.gen_range(10u64..300))
                } else {
                    SimDuration::ZERO
                },
            })
            .collect();
        let seed = rng.gen_range(0u64..1000);
        let lookahead = SimDuration::from_micros(rng.gen_range(200u64..5_000));
        let link_latency = lookahead * rng.gen_range(1u64..3);

        let single = run_wings(&specs, 1, lookahead, link_latency, seed);
        for shards in [2u16, 4] {
            let sharded = run_wings(&specs, shards, lookahead, link_latency, seed);
            assert_eq!(
                single, sharded,
                "per-wing history diverged at {shards} shards ({wings} wings)"
            );
        }
        // The ring actually exercised the cross-shard path, and the
        // trace diff actually compared span records, not empty lists.
        let cross: u64 = single
            .iter()
            .flat_map(|(_, _, counters)| counters.iter())
            .filter(|(k, _)| k.ends_with(".cross_recv"))
            .map(|(_, v)| *v)
            .sum();
        assert!(cross > 0, "no cross traffic delivered");
        let spans: usize = single.iter().map(|(_, spans, _)| spans.len()).sum();
        assert!(spans > 0, "no span records diffed");
    });
}

/// Two runs at a fixed shard count are byte-identical, wing scoping
/// aside: full trace + metrics of every shard world compared.
#[test]
fn fixed_shard_count_double_run_is_byte_identical() {
    let specs = [
        WingSpec {
            per_burst: 4,
            bursts: 4,
            size: 64,
            interval: SimDuration::from_micros(900),
            sink_cost: SimDuration::from_micros(50),
        },
        WingSpec {
            per_burst: 2,
            bursts: 5,
            size: 200,
            interval: SimDuration::from_micros(1_700),
            sink_cost: SimDuration::ZERO,
        },
        WingSpec {
            per_burst: 6,
            bursts: 3,
            size: 16,
            interval: SimDuration::from_micros(650),
            sink_cost: SimDuration::ZERO,
        },
    ];
    let run = || {
        let plan = ShardPlan::new(3, SimDuration::from_millis(1)).without_wall_health();
        let report = run_sharded(
            &plan,
            7,
            SimTime::from_secs(2),
            |world, info| {
                for (w, spec) in specs.iter().enumerate() {
                    if w % info.shards as usize != info.shard as usize {
                        continue;
                    }
                    let dst_wing = (w + 1) % specs.len();
                    add_wing(
                        world,
                        w,
                        spec,
                        (dst_wing % info.shards as usize) as u16,
                        dst_wing as u16,
                    );
                }
                Ok(())
            },
            |world, _| {
                let events: Vec<String> = world
                    .trace()
                    .events()
                    .iter()
                    .map(|e| e.to_string())
                    .collect();
                let spans: Vec<String> = world.trace().spans().map(|s| format!("{s:?}")).collect();
                (events, spans, world.trace().metrics().snapshot().to_json())
            },
        )
        .expect("sharded run");
        report
            .shards
            .into_iter()
            .map(|s| (s.shard, s.events, s.cross_sent, s.result))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Telemetry objectives for the incident determinism test: wing 0's
/// send counter must stay live. Its sender exhausts its bursts early
/// in the run, so the liveness SLO deterministically burns through its
/// budget and fires — tripping the trigger plane on whichever shard
/// hosts the objective's sampler.
fn wing_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        sampler: SamplerConfig {
            interval: SimDuration::from_millis(100),
            window: 16,
        },
        objectives: vec![Objective {
            name: "wing0-liveness".to_owned(),
            subject: "wing:w0".to_owned(),
            kind: SloKind::Liveness {
                counter: "wing0.sent".to_owned(),
                budget_ppm: 100_000,
            },
            warning: BurnRateRule {
                long_intervals: 4,
                short_intervals: 2,
                factor_milli: 2_500,
            },
            firing: BurnRateRule {
                long_intervals: 4,
                short_intervals: 2,
                factor_milli: 5_000,
            },
        }],
        liveness_timeout: SimDuration::from_millis(300),
    }
}

/// Keeps a shard's event queue non-empty until `until`: the sampler
/// disarms on an idle world, and the wings drain their bursts within
/// milliseconds — long before the liveness SLO can burn through its
/// budget.
struct Heartbeat {
    until: SimTime,
}

impl Process for Heartbeat {
    fn name(&self) -> &str {
        "heartbeat"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now() < self.until {
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
    }
}

/// Incident bundles snapshotted mid-run are byte-identical across two
/// runs of the same seed, at 2- and 4-shard interleavings: the flight
/// recorder's ring, the sampler, the SLO engine and the trigger plane
/// all sit on the deterministic path even with shards on real threads.
#[test]
fn sharded_incident_bundles_are_deterministic_across_interleavings() {
    let specs = [
        WingSpec {
            per_burst: 3,
            bursts: 3,
            size: 48,
            interval: SimDuration::from_micros(800),
            sink_cost: SimDuration::from_micros(40),
        },
        WingSpec {
            per_burst: 2,
            bursts: 4,
            size: 120,
            interval: SimDuration::from_micros(1_300),
            sink_cost: SimDuration::ZERO,
        },
    ];
    let run = |shards: u16| {
        let plan = ShardPlan::new(shards, SimDuration::from_millis(1)).without_wall_health();
        let report = run_sharded(
            &plan,
            11,
            SimTime::from_secs(2),
            |world, info| {
                world.enable_flight_recorder();
                world.enable_telemetry(wing_telemetry());
                let beat = world.add_node(format!("s{}.beat-host", info.shard));
                world.add_process(
                    beat,
                    Box::new(Heartbeat {
                        until: SimTime::from_secs(2),
                    }),
                );
                for (w, spec) in specs.iter().enumerate() {
                    if w % info.shards as usize != info.shard as usize {
                        continue;
                    }
                    let dst_wing = (w + 1) % specs.len();
                    add_wing(
                        world,
                        w,
                        spec,
                        (dst_wing % info.shards as usize) as u16,
                        dst_wing as u16,
                    );
                }
                Ok(())
            },
            |world, info| {
                let bundles: Vec<String> = world
                    .incidents()
                    .iter()
                    .map(|b| b.to_json().document())
                    .collect();
                (info.shard, bundles)
            },
        )
        .expect("sharded run");
        report
            .shards
            .into_iter()
            .map(|s| s.result)
            .collect::<Vec<_>>()
    };
    for shards in [2u16, 4] {
        let first = run(shards);
        let total: usize = first.iter().map(|(_, bundles)| bundles.len()).sum();
        assert!(total > 0, "no incident bundles captured at {shards} shards");
        // Every bundle stamps the shard that captured it.
        for (shard, bundles) in &first {
            for json in bundles {
                assert!(
                    json.contains(&format!("\"shard\": {shard}")),
                    "bundle on shard {shard} lacks its shard stamp"
                );
            }
        }
        assert_eq!(
            first,
            run(shards),
            "incident bundles diverged across runs at {shards} shards"
        );
    }
}

/// A cross-shard link faster than the lookahead would let a message
/// land inside a window a sibling already executed; the configuration
/// is rejected when the world is built, with an explanatory error.
#[test]
fn lookahead_violation_rejected_at_build_time() {
    let mut world = World::new(0);
    let err = world
        .configure_shard(ShardConfig {
            shard: 0,
            shards: 2,
            lookahead: SimDuration::from_millis(1),
            link_latency: SimDuration::from_micros(400),
        })
        .unwrap_err();
    assert!(matches!(err, SimError::ShardLookahead { .. }));
    let msg = err.to_string();
    assert!(
        msg.contains("lookahead") && msg.contains("link latency"),
        "error must explain the bound: {msg}"
    );

    // Zero lookahead is equally unbounded.
    let err = world
        .configure_shard(ShardConfig {
            shard: 0,
            shards: 2,
            lookahead: SimDuration::ZERO,
            link_latency: SimDuration::ZERO,
        })
        .unwrap_err();
    assert!(matches!(err, SimError::ShardLookahead { .. }));

    // The conductor validates before spawning any thread.
    let plan = ShardPlan::new(2, SimDuration::from_millis(1))
        .with_link_latency(SimDuration::from_micros(1));
    let err = run_sharded(&plan, 0, SimTime::from_secs(1), |_, _| Ok(()), |_, _| ())
        .expect_err("bad plan must be rejected");
    assert!(matches!(err, SimError::ShardLookahead { .. }));

    // Out-of-range identities are build errors too.
    let err = world
        .configure_shard(ShardConfig {
            shard: 3,
            shards: 2,
            lookahead: SimDuration::from_millis(1),
            link_latency: SimDuration::from_millis(1),
        })
        .unwrap_err();
    assert!(matches!(
        err,
        SimError::ShardUnknown {
            shard: 3,
            shards: 2
        }
    ));
}

/// Cross-shard operations on a standalone world fail loudly instead of
/// silently dropping traffic.
#[test]
fn cross_shard_ops_require_a_sharded_world() {
    struct Probe;
    impl Process for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert!(ctx.shard().is_none());
            assert_eq!(
                ctx.send_shard(0, 0, vec![1u8]).unwrap_err(),
                SimError::NotSharded
            );
            assert_eq!(
                ctx.register_shard_inlet(0, 40).unwrap_err(),
                SimError::NotSharded
            );
        }
    }
    let mut world = World::new(0);
    let n = world.add_node("n");
    world.add_process(n, Box::new(Probe));
    world.run_until_idle();
}

/// A cross-shard message arrives exactly one link latency after the
/// sender's emit time, and out-of-range destinations are rejected.
#[test]
fn cross_message_timing_is_exact() {
    struct At;
    impl Process for At {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.register_shard_inlet(0, INGRESS_PORT).unwrap();
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _d: Datagram) {
            ctx.bump("probe.arrivals", 1);
            ctx.gauge_set("probe.arrival_ns", ctx.now().as_nanos() as i64);
        }
    }
    struct SendOnce;
    impl Process for SendOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(3), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            // Modeled CPU first: the message leaves at the emit time.
            ctx.busy(SimDuration::from_micros(250));
            ctx.send_shard(0, 0, vec![9u8]).unwrap();
            assert!(matches!(
                ctx.send_shard(7, 0, vec![9u8]),
                Err(SimError::ShardUnknown { shard: 7, .. })
            ));
        }
    }
    let plan = ShardPlan::new(1, SimDuration::from_millis(2)).without_wall_health();
    let report = run_sharded(
        &plan,
        0,
        SimTime::from_secs(1),
        |world, _| {
            let n = world.add_node("n");
            world.add_process(n, Box::new(At));
            world.add_process(n, Box::new(SendOnce));
            Ok(())
        },
        |world, _| {
            let snap = world.trace().metrics().snapshot();
            (
                snap.counters.get("probe.arrivals").copied(),
                snap.gauges.get("probe.arrival_ns").copied(),
            )
        },
    )
    .expect("run");
    // Sent at t=3ms with 250us of modeled CPU, link latency 2ms.
    let expected = SimTime::from_micros(3_250) + SimDuration::from_millis(2);
    assert_eq!(
        report.shards[0].result,
        (Some(1), Some(expected.as_nanos() as i64))
    );
}

/// The merged pending-work horizon feeds scheduler telemetry: messages
/// the conductor still holds count as pending work, and per-shard
/// scopes are published alongside the global ones.
#[test]
fn shard_scopes_fold_external_pending() {
    let mut world = World::new(0);
    world
        .configure_shard(ShardConfig {
            shard: 1,
            shards: 2,
            lookahead: SimDuration::from_millis(1),
            link_latency: SimDuration::from_millis(1),
        })
        .unwrap();
    world.note_external_pending(5);
    world.run_until(SimTime::from_millis(10));
    let snap = world.trace().metrics().snapshot();
    assert_eq!(snap.gauges.get("sched.events_pending"), Some(&5));
    assert_eq!(snap.gauges.get("shard.s1.sched.events_pending"), Some(&5));
    assert!(snap.histograms.contains_key("shard.s1.sched.lag_ns"));
}
