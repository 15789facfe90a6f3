//! Federation-wide observability: path spans keyed by correlation id,
//! per-runtime metric scopes, and deterministic snapshots.

use umiddle::platform_bluetooth::{HidpMouse, MouseConfig};
use umiddle::platform_upnp::{LightLogic, UpnpDevice};
use umiddle::simnet::{
    Ctx, LocalMessage, ProcId, Process, SegmentConfig, SimDuration, SimTime, TraceAssert, World,
};
use umiddle::umiddle_apps::{WireRule, Wirer};
use umiddle::umiddle_bridges::{behaviors, BluetoothMapper, NativeService, UpnpMapper};
use umiddle::umiddle_core::{
    Direction, RuntimeClient, RuntimeConfig, RuntimeEvent, RuntimeId, Shape, UMessage,
    UmiddleRuntime,
};
use umiddle::umiddle_usdl::UsdlLibrary;

use std::cell::RefCell;
use std::rc::Rc;

/// Builds the canonical two-hop world: a Bluetooth mouse mapped on
/// h1/rt0, a UPnP light mapped on h2/rt1, clicks wired across the
/// federation. Returns the world, run to completion.
fn two_hop_world(seed: u64) -> World {
    let mut world = World::new(seed);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    world.attach(h1, pico).unwrap();
    let rt1 = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
    );
    let mouse_node = world.add_node("mouse");
    world.attach(mouse_node, pico).unwrap();
    world.add_process(
        mouse_node,
        Box::new(HidpMouse::new(MouseConfig {
            name: "Obs Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(500)),
            motion_interval: None,
            click_limit: 10,
        })),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled())),
    );

    let h2 = world.add_node("h2");
    world.attach(h2, hub).unwrap();
    let rt2 = world.add_process(
        h2,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
    );
    let light_node = world.add_node("light");
    world.attach(light_node, hub).unwrap();
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Obs Light", "uuid:obs-l")),
            5000,
        )),
    );
    world.add_process(
        h2,
        Box::new(UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled())),
    );

    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt1,
            vec![WireRule::new(
                "Obs Mouse",
                "clicks",
                "Obs Light",
                "switch-on",
            )],
        )),
    );

    world.run_until(SimTime::from_secs(30));
    world
}

/// A message crossing a two-platform bridge (Bluetooth → UPnP) is fully
/// reconstructable from its trace spans by correlation id.
#[test]
fn correlation_id_reconstructs_two_hop_path() {
    let world = two_hop_world(4242);
    let trace = world.trace();

    // Find the cross-platform path by its terminal bridge hop.
    let corr = trace
        .spans()
        .find(|s| s.stage == "bridge.upnp.input")
        .expect("a click reached the UPnP bridge")
        .corr;
    // The connection was opened by rt0 (the mouse's runtime).
    assert_eq!(corr >> 32, 0, "correlation id encodes the owning runtime");

    // Every hop of the journey is present, in causal order; the whole
    // matched window (connection setup through first delivery into the
    // UPnP bridge) fits a generous budget, and no span leaked open.
    TraceAssert::new(trace)
        .expect_path(corr)
        .through(&[
            "connect",
            "path.bound",
            "output.enqueue",
            "queue.wait",
            "transport.send",
            "transport.receive",
            "deliver.local",
            "bridge.upnp.input",
        ])
        .within(SimDuration::from_secs(5))
        .all_closed();
    assert_eq!(trace.ring_overwrites(), 0, "span ring wrapped");
}

/// Counters land in the owning runtime's scope and nowhere else, and the
/// expected per-runtime metrics exist after a cross-runtime exchange.
#[test]
fn metric_scopes_separate_runtimes() {
    let world = two_hop_world(4242);
    let metrics = world.trace().metrics();

    // rt0 owns the mouse: it registers the translator, opens the
    // connection and sends the outputs.
    let rt0 = metrics.scoped("rt0");
    assert!(rt0.counter("registrations") >= 1);
    assert_eq!(rt0.counter("connections_opened"), 1);
    assert!(rt0.counter("outputs") >= 10, "10 press/release signals");

    // rt1 owns the light: it decodes the path frames but never opened a
    // connection of its own.
    let rt1 = metrics.scoped("rt1");
    assert!(rt1.counter("frames_decoded") >= 10);
    assert_eq!(rt1.counter("connections_opened"), 0);

    // Scoped iteration strips the prefix and never leaks neighbours.
    for (name, _) in rt0.counters() {
        assert!(!name.starts_with("rt"), "prefix not stripped: {name}");
    }

    // The federation-wide histograms exist alongside the scopes.
    for h in [
        "umiddle.discovery_latency",
        "umiddle.translation_latency",
        "umiddle.path_latency",
        "bridge.bluetooth.translation",
        "bridge.upnp.translation",
    ] {
        let hist = metrics
            .histogram(h)
            .unwrap_or_else(|| panic!("missing {h}"));
        assert!(hist.count() > 0, "{h} is empty");
    }
}

/// The critical-path analyzer accounts for (essentially all of) the
/// end-to-end latency of a bridged journey by named stage, and the
/// trace's own drop counters are folded into the metrics snapshot.
#[test]
fn critical_path_attributes_bridged_latency() {
    let world = two_hop_world(4242);
    let trace = world.trace();
    let corr = trace
        .spans()
        .find(|s| s.stage == "bridge.upnp.input")
        .expect("a click reached the UPnP bridge")
        .corr;

    let cp = umiddle::simnet::CriticalPath::analyze(&trace.spans().collect::<Vec<_>>(), corr)
        .expect("journeys on the bridged path");
    assert!(cp.journeys >= 1);
    assert!(
        cp.coverage() >= 0.95,
        "only {:.3} of end-to-end latency attributed to stages",
        cp.coverage()
    );
    assert_eq!(cp.dominant.is_some(), cp.total > SimDuration::ZERO);
    assert!(
        cp.stages.iter().any(|s| s.name == "transport.send"),
        "wire time missing from breakdown: {:?}",
        cp.stages.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // Lossless run: the ring counter exists in the snapshot and is 0.
    let snap = trace.metrics().snapshot();
    assert_eq!(snap.counters.get("trace.ring_overwrites"), Some(&0));
}

/// Two identical runs produce byte-identical metric snapshots.
#[test]
fn snapshot_is_deterministic_across_runs() {
    let snapshot = |seed| two_hop_world(seed).trace().metrics().snapshot().to_json();
    let a = snapshot(7).document();
    let b = snapshot(7).document();
    assert_eq!(a, b);
    assert!(a.contains("\"umiddle.path_latency\""));

    // A different seed still produces the same schema (and typically
    // different timings — not asserted, jitter may collide).
    let c = snapshot(8).document();
    assert!(c.contains("\"umiddle.path_latency\""));
}

/// An application can pull its runtime's scoped metrics through the
/// local API: `RuntimeRequest::MetricsSnapshot` → `RuntimeEvent::Metrics`.
#[test]
fn runtime_serves_scoped_snapshot_over_local_api() {
    struct Prober {
        runtime: ProcId,
        client: Option<RuntimeClient>,
        token: u64,
        got: Rc<RefCell<Option<umiddle::simnet::MetricsSnapshot>>>,
    }
    impl Process for Prober {
        fn name(&self) -> &str {
            "prober"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.client = Some(RuntimeClient::new(self.runtime));
            // Ask late enough that the runtime has advertised a few times.
            ctx.set_timer(SimDuration::from_secs(20), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.token = self.client.as_mut().expect("client").metrics_snapshot(ctx);
        }
        fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
            let Ok(event) = msg.downcast::<RuntimeEvent>() else {
                return;
            };
            if let RuntimeEvent::Metrics { token, snapshot } = *event {
                assert_eq!(token, self.token);
                *self.got.borrow_mut() = Some(snapshot);
            }
        }
    }

    let mut world = World::new(99);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let h1 = world.add_node("h1");
    world.attach(h1, hub).unwrap();
    let rt = world.add_process(
        h1,
        Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(3)))),
    );
    // Give the runtime something to meter: one registered native source.
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Probe Source",
            Shape::builder()
                .digital("out", Direction::Output, "text/plain".parse().unwrap())
                .build()
                .unwrap(),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(1),
                5,
                |_| UMessage::text("tick"),
            )),
        )),
    );
    let got = Rc::new(RefCell::new(None));
    world.add_process(
        h1,
        Box::new(Prober {
            runtime: rt,
            client: None,
            token: 0,
            got: Rc::clone(&got),
        }),
    );
    world.run_until(SimTime::from_secs(30));

    let snapshot = got.borrow().clone().expect("Metrics reply arrived");
    // Prefixes are stripped: the scope's own counters appear bare.
    assert!(
        snapshot.counters.contains_key("advertisements_sent"),
        "scoped counters: {:?}",
        snapshot.counters
    );
    assert!(snapshot.counters.keys().all(|k| !k.starts_with("rt3.")));
}

/// Pulls the runtime's live telemetry window at fixed virtual times and
/// records every reply, keyed by request token.
struct WindowProber {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    pulls: Vec<SimDuration>,
    pending: Rc<RefCell<Vec<u64>>>,
    got: Rc<RefCell<Vec<(u64, umiddle::simnet::TelemetryWindow)>>>,
}

impl Process for WindowProber {
    fn name(&self) -> &str {
        "window-prober"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.client = Some(RuntimeClient::new(self.runtime));
        for (i, &at) in self.pulls.iter().enumerate() {
            ctx.set_timer(at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let token = self.client.as_mut().expect("client").telemetry_window(ctx);
        self.pending.borrow_mut().push(token);
    }
    fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        if let RuntimeEvent::Telemetry { token, window } = *event {
            assert!(
                self.pending.borrow().contains(&token),
                "reply for a token never requested"
            );
            let window = window.expect("telemetry plane enabled");
            self.got.borrow_mut().push((token, window));
        }
    }
}

type PulledWindows = Rc<RefCell<Vec<(u64, umiddle::simnet::TelemetryWindow)>>>;

/// Two concurrent runtimes each serve their own scoped, live telemetry
/// windows over the local API (`RuntimeRequest::TelemetryWindow` →
/// `RuntimeEvent::Telemetry`), with interleaved pulls: windows stay
/// scoped to the owning runtime, advance monotonically between pulls,
/// and the whole interleaving is byte-deterministic across runs.
#[test]
fn runtimes_serve_interleaved_live_telemetry_windows() {
    fn run(seed: u64) -> (PulledWindows, PulledWindows) {
        let mut world = World::new(seed);
        let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

        let h1 = world.add_node("h1");
        world.attach(h1, hub).unwrap();
        world.attach(h1, pico).unwrap();
        let rt1 = world.add_process(
            h1,
            Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(0)))),
        );
        let mouse_node = world.add_node("mouse");
        world.attach(mouse_node, pico).unwrap();
        world.add_process(
            mouse_node,
            Box::new(HidpMouse::new(MouseConfig {
                name: "Obs Mouse".to_owned(),
                click_interval: Some(SimDuration::from_millis(500)),
                motion_interval: None,
                click_limit: 0, // keep clicking so every window sees traffic
            })),
        );
        world.add_process(
            h1,
            Box::new(BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled())),
        );

        let h2 = world.add_node("h2");
        world.attach(h2, hub).unwrap();
        let rt2 = world.add_process(
            h2,
            Box::new(UmiddleRuntime::new(RuntimeConfig::new(RuntimeId(1)))),
        );
        let light_node = world.add_node("light");
        world.attach(light_node, hub).unwrap();
        world.add_process(
            light_node,
            Box::new(UpnpDevice::new(
                Box::new(LightLogic::new("Obs Light", "uuid:obs-l")),
                5000,
            )),
        );
        world.add_process(
            h2,
            Box::new(UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled())),
        );
        world.add_process(
            h1,
            Box::new(Wirer::new(
                rt1,
                vec![WireRule::new(
                    "Obs Mouse",
                    "clicks",
                    "Obs Light",
                    "switch-on",
                )],
            )),
        );

        world.enable_telemetry(umiddle::simnet::TelemetryConfig {
            sampler: umiddle::simnet::SamplerConfig {
                interval: SimDuration::from_millis(500),
                window: 64,
            },
            objectives: vec![],
            liveness_timeout: SimDuration::from_secs(5),
        });

        // Interleaved pulls: rt0 at 10 s and 20 s, rt1 at 15 s and 25 s.
        let make = |runtime, pulls: &[u64]| {
            let got: PulledWindows = Rc::new(RefCell::new(Vec::new()));
            let prober = WindowProber {
                runtime,
                client: None,
                pulls: pulls.iter().map(|&s| SimDuration::from_secs(s)).collect(),
                pending: Rc::new(RefCell::new(Vec::new())),
                got: Rc::clone(&got),
            };
            (prober, got)
        };
        let (p0, got0) = make(rt1, &[10, 20]);
        let (p1, got1) = make(rt2, &[15, 25]);
        world.add_process(h1, Box::new(p0));
        world.add_process(h2, Box::new(p1));

        world.run_until(SimTime::from_secs(30));
        (got0, got1)
    }

    let (got0, got1) = run(4242);
    let w0 = got0.borrow();
    let w1 = got1.borrow();
    assert_eq!(w0.len(), 2, "rt0 prober missed a pull");
    assert_eq!(w1.len(), 2, "rt1 prober missed a pull");

    // Scoping: each runtime sees its own bare counters and nothing of
    // its neighbour (or of the unscoped federation metrics).
    let (_, rt0_window) = &w0[1];
    let (_, rt1_window) = &w1[1];
    assert!(
        rt0_window.counters.contains_key("outputs"),
        "rt0 window lacks its own traffic: {:?}",
        rt0_window.counters.keys().collect::<Vec<_>>()
    );
    assert!(rt1_window.counters.contains_key("frames_decoded"));
    for w in [rt0_window, rt1_window] {
        assert!(w.counters.keys().all(|k| !k.contains("rt0.")));
        assert!(w.counters.keys().all(|k| !k.contains("rt1.")));
        assert!(!w.counters.contains_key("events_processed"));
    }

    // Liveness: the second pull sees a later sampler position and more
    // accumulated traffic than the first — the windows are live views,
    // not one frozen snapshot.
    assert!(w0[1].1.last_sample_ns > w0[0].1.last_sample_ns);
    assert!(w0[1].1.samples > w0[0].1.samples);
    let outputs =
        |w: &umiddle::simnet::TelemetryWindow| w.counters.get("outputs").map_or(0, |c| c.total);
    assert!(
        outputs(&w0[1].1) > outputs(&w0[0].1),
        "second window saw no new outputs"
    );

    // Determinism: the full interleaving replays byte-identically.
    let (again0, again1) = run(4242);
    let json = |ws: &[(u64, umiddle::simnet::TelemetryWindow)]| {
        ws.iter()
            .map(|(t, w)| format!("{t}:{}", w.to_json()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(json(&w0), json(&again0.borrow()));
    assert_eq!(json(&w1), json(&again1.borrow()));
}
