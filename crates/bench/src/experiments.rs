//! The experiment implementations, one per paper table/figure.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{
    diff_attribution, Addr, AlertState, AlertTransition, AttributionReport, BurnRateRule,
    CriticalPath, Ctx, HealthReport, IncidentBundle, MetricId, Objective, ProcId, Process,
    SamplerConfig, SegmentConfig, SimDuration, SimTime, SloKind, SpanRecord, StreamEvent, StreamId,
    TelemetryConfig, World,
};
use umiddle_apps::{WireRule, Wirer};
use umiddle_bridges::{
    behaviors, direct, BluetoothMapper, MediaBrokerMapper, NativeService, RmiMapper, UpnpMapper,
};
use umiddle_core::{Direction, QosPolicy, Shape, UMessage};
use umiddle_usdl::UsdlLibrary;

use crate::fixtures::{hub_world, runtime_node, ByteMeter, MbSaturatingProducer};

fn mean(durations: &[SimDuration]) -> SimDuration {
    if durations.is_empty() {
        return SimDuration::ZERO;
    }
    let total: u64 = durations.iter().map(|d| d.as_nanos()).sum();
    SimDuration::from_nanos(total / durations.len() as u64)
}

// =====================================================================
// E1 — Figure 10: service-level bridging (translator generation)
// =====================================================================

/// One row of the Figure-10 reproduction.
#[derive(Debug, Clone)]
pub struct MappingRow {
    /// Device type label.
    pub device: String,
    /// Mean time from native discovery to directory registration.
    pub mean_time: SimDuration,
    /// Instantiation rate (instances per second), the paper's metric.
    pub rate_per_sec: f64,
    /// Paper's approximate rate for comparison.
    pub paper_rate: f64,
    /// Samples measured.
    pub samples: usize,
}

/// Runs the service-level bridging experiment (Figure 10).
///
/// For each device type, `repetitions` isolated worlds are built, each
/// with one device; the measured quantity is the time from the mapper
/// first hearing about the device to the translator's registration.
pub fn e1_service_level(repetitions: usize) -> Vec<MappingRow> {
    use platform_upnp::{AirconLogic, ClockLogic, DeviceLogic, LightLogic, UpnpDevice};

    fn upnp_once(seed: u64, logic: Box<dyn DeviceLogic>) -> SimDuration {
        let (mut world, hub) = hub_world(seed);
        let (_h1, rt) = runtime_node(&mut world, "h1", 0, &[hub]);
        let dev_node = world.add_node("device");
        world.attach(dev_node, hub).unwrap();
        world.add_process(dev_node, Box::new(UpnpDevice::new(logic, 5000)));
        let mapper = UpnpMapper::with_defaults(rt, UsdlLibrary::bundled());
        let stats = mapper.stats_handle();
        let h1 = world.node_of(rt).unwrap();
        world.add_process(h1, Box::new(mapper));
        world.run_until(SimTime::from_secs(30));
        let stats = stats.borrow();
        stats
            .mappings
            .first()
            .map(|(_, _, d)| *d)
            .expect("device mapped within 30s")
    }

    fn mouse_once(seed: u64) -> SimDuration {
        use platform_bluetooth::{HidpMouse, MouseConfig};
        let mut world = World::new(seed);
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
        let (_h1, rt) = runtime_node(&mut world, "h1", 0, &[pico]);
        let m_node = world.add_node("mouse");
        world.attach(m_node, pico).unwrap();
        world.add_process(
            m_node,
            Box::new(HidpMouse::new(MouseConfig {
                name: "HIDP Mouse".to_owned(),
                click_interval: None,
                motion_interval: None,
                click_limit: 0,
            })),
        );
        let mapper = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
        let stats = mapper.stats_handle();
        let h1 = world.node_of(rt).unwrap();
        world.add_process(h1, Box::new(mapper));
        world.run_until(SimTime::from_secs(30));
        let stats = stats.borrow();
        stats
            .mappings
            .first()
            .map(|(_, _, d)| *d)
            .expect("mouse mapped within 30s")
    }

    let mut rows = Vec::new();
    #[allow(clippy::type_complexity)]
    let cases: Vec<(&str, f64, Box<dyn Fn(u64) -> SimDuration>)> = vec![
        (
            "UPnP clock (14 ports, 2 services)",
            0.7,
            Box::new(|seed| upnp_once(seed, Box::new(ClockLogic::new("Clock", "uuid:clock")))),
        ),
        (
            "UPnP air conditioner",
            3.5,
            Box::new(|seed| upnp_once(seed, Box::new(AirconLogic::new("Aircon", "uuid:ac")))),
        ),
        (
            "UPnP light",
            4.0,
            Box::new(|seed| upnp_once(seed, Box::new(LightLogic::new("Light", "uuid:light")))),
        ),
        ("Bluetooth HIDP mouse", 5.0, Box::new(mouse_once)),
    ];
    for (device, paper_rate, run) in cases {
        let samples: Vec<SimDuration> = (0..repetitions).map(|i| run(1000 + i as u64)).collect();
        let m = mean(&samples);
        rows.push(MappingRow {
            device: device.to_owned(),
            mean_time: m,
            rate_per_sec: if m.is_zero() {
                0.0
            } else {
                1.0 / m.as_secs_f64()
            },
            paper_rate,
            samples: samples.len(),
        });
    }
    rows
}

// =====================================================================
// E2 — §5.2: device-level bridging latency
// =====================================================================

/// Results of the device-level latency experiment.
#[derive(Debug, Clone)]
pub struct DeviceLevelResults {
    /// Mean end-to-end UPnP SetPower latency (input → completion).
    pub upnp_total: SimDuration,
    /// The uMiddle-side share of that latency (control translation).
    pub upnp_umiddle_share: SimDuration,
    /// Number of actions measured.
    pub upnp_samples: usize,
    /// Mean Bluetooth mouse signal translation latency.
    pub mouse_translation: SimDuration,
    /// Number of signals measured.
    pub mouse_samples: usize,
}

/// Runs the §5.2 experiment: 100 SetPower actions on the UPnP light and
/// 100 Bluetooth mouse signals.
pub fn e2_device_level() -> DeviceLevelResults {
    use platform_upnp::{LightLogic, UpnpDevice};

    // --- UPnP light: 100 actions ---
    let (mut world, hub) = hub_world(7);
    let (h1, rt) = runtime_node(&mut world, "h1", 0, &[hub]);
    let light_node = world.add_node("light");
    world.attach(light_node, hub).unwrap();
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("Bench Light", "uuid:bl")),
            5000,
        )),
    );
    let mapper = UpnpMapper::with_defaults(rt, UsdlLibrary::bundled());
    let upnp_stats = mapper.stats_handle();
    world.add_process(h1, Box::new(mapper));
    // 100 pulses, spaced well beyond the expected 160 ms latency.
    let shape = Shape::builder()
        .digital("toggle", Direction::Output, "text/plain".parse().unwrap())
        .build()
        .unwrap();
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Bench Switch",
            shape,
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "toggle",
                SimDuration::from_millis(400),
                100,
                |_| UMessage::text("1"),
            )),
        )),
    );
    let wirer = Wirer::new(
        rt,
        vec![WireRule::new(
            "Bench Switch",
            "toggle",
            "Bench Light",
            "switch-on",
        )],
    );
    world.add_process(h1, Box::new(wirer));
    world.run_until(SimTime::from_secs(120));
    let upnp_latencies = upnp_stats.borrow().action_latencies;

    // --- Bluetooth mouse: 100 signals ---
    let mut world = World::new(8);
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
    let (h1, rt) = runtime_node(&mut world, "h1", 0, &[pico]);
    let m_node = world.add_node("mouse");
    world.attach(m_node, pico).unwrap();
    world.add_process(
        m_node,
        Box::new(platform_bluetooth::HidpMouse::new(
            platform_bluetooth::MouseConfig {
                name: "Bench Mouse".to_owned(),
                click_interval: Some(SimDuration::from_millis(200)),
                motion_interval: None,
                click_limit: 50, // 50 press + 50 release = 100 signals
            },
        )),
    );
    let mapper = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
    let bt_stats = mapper.stats_handle();
    world.add_process(h1, Box::new(mapper));
    world.run_until(SimTime::from_secs(60));
    let mouse_latencies = bt_stats.borrow().translation_latencies;

    DeviceLevelResults {
        upnp_total: upnp_latencies.mean(),
        upnp_umiddle_share: umiddle_bridges::calib::CONTROL_TRANSLATION,
        upnp_samples: upnp_latencies.len(),
        mouse_translation: mouse_latencies.mean(),
        mouse_samples: mouse_latencies.len(),
    }
}

// =====================================================================
// E3 — Figure 11: transport-level bridging throughput
// =====================================================================

/// One Figure-11 series.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Test name.
    pub test: String,
    /// Measured goodput in Mbps.
    pub mbps: f64,
    /// The paper's value.
    pub paper_mbps: f64,
    /// Messages (or bytes for the baseline) observed.
    pub observed: usize,
}

/// A plain bulk TCP sender (for the baseline row).
struct BulkTcp {
    target: Addr,
    total: usize,
    sent: usize,
    stream: Option<StreamId>,
}

impl Process for BulkTcp {
    fn name(&self) -> &str {
        "bulk-tcp"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = ctx.connect(self.target).ok();
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if Some(stream) != self.stream {
            return;
        }
        if matches!(event, StreamEvent::Connected | StreamEvent::Writable) {
            while self.sent < self.total {
                let n = (self.total - self.sent).min(8192);
                match ctx.stream_send(stream, vec![0xCD; n]) {
                    Ok(()) => self.sent += n,
                    Err(_) => break,
                }
            }
        }
    }
}

/// A stream sink that records `(time, cumulative bytes)`.
struct TcpMeter {
    port: u16,
    samples: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl Process for TcpMeter {
    fn name(&self) -> &str {
        "tcp-meter"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).unwrap();
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, _stream: StreamId, event: StreamEvent) {
        if let StreamEvent::Data(d) = event {
            let mut samples = self.samples.borrow_mut();
            let total = samples.last().map(|(_, b)| *b).unwrap_or(0) + d.len() as u64;
            samples.push((ctx.now().as_nanos(), total));
        }
    }
}

fn goodput_from_samples(samples: &[(u64, u64)], from: u64, to: u64) -> f64 {
    let at = |t: u64| -> u64 {
        samples
            .iter()
            .take_while(|(ts, _)| *ts <= t)
            .last()
            .map(|(_, b)| *b)
            .unwrap_or(0)
    };
    let bytes = at(to).saturating_sub(at(from));
    bytes as f64 * 8.0 / ((to - from) as f64 / 1e9) / 1e6
}

/// Runs the transport-level throughput experiment (Figure 11).
///
/// `measure_secs` is the measurement window after a warmup; the paper's
/// numbers are 7.9 (TCP), 6.2 (MB), 3.2 (RMI), 2.9 (RMI-MB) Mbps.
pub fn e3_transport_level(measure_secs: u64) -> Vec<ThroughputRow> {
    let warmup = 30u64;
    let end = warmup + measure_secs;
    let mut rows = Vec::new();

    // --- TCP baseline ---
    {
        eprintln!("e3: tcp baseline...");
        let (mut world, hub) = hub_world(31);
        let a = world.add_node("a");
        let b = world.add_node("b");
        world.attach(a, hub).unwrap();
        world.attach(b, hub).unwrap();
        let samples = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            b,
            Box::new(TcpMeter {
                port: 80,
                samples: Rc::clone(&samples),
            }),
        );
        world.add_process(
            a,
            Box::new(BulkTcp {
                target: Addr::new(b, 80),
                total: 200_000_000, // far more than the window can move
                sent: 0,
                stream: None,
            }),
        );
        world.run_until(SimTime::from_secs(end));
        let samples = samples.borrow();
        rows.push(ThroughputRow {
            test: "TCP baseline".to_owned(),
            mbps: goodput_from_samples(&samples, warmup * 1_000_000_000, end * 1_000_000_000),
            paper_mbps: 7.9,
            observed: samples.len(),
        });
    }

    // --- MB test: broker channel -> uMiddle sink ---
    {
        eprintln!("e3: mb test...");
        let (mut world, hub) = hub_world(32);
        let n1 = world.add_node("n1");
        world.attach(n1, hub).unwrap();
        world.add_process(n1, Box::new(platform_mediabroker::MediaBroker::new()));
        let broker = Addr::new(n1, platform_mediabroker::BROKER_PORT);
        world.add_process(
            n1,
            Box::new(MbSaturatingProducer::new(broker, "bench", 1400)),
        );
        let (h2, rt) = runtime_node(&mut world, "n2", 0, &[hub]);
        world.add_process(
            h2,
            Box::new(MediaBrokerMapper::new(
                rt,
                UsdlLibrary::bundled(),
                broker,
                vec![],
            )),
        );
        let meter = ByteMeter::new();
        let samples = Rc::clone(&meter.samples);
        world.add_process(
            h2,
            Box::new(NativeService::new(
                "MB Meter",
                Shape::builder()
                    .digital(
                        "in",
                        Direction::Input,
                        "application/octet-stream".parse().unwrap(),
                    )
                    .build()
                    .unwrap(),
                rt,
                Box::new(meter),
            )),
        );
        world.add_process(
            h2,
            Box::new(Wirer::new(
                rt,
                vec![WireRule::new(
                    "MB channel bench",
                    "media-out",
                    "MB Meter",
                    "in",
                )],
            )),
        );
        world.run_until(SimTime::from_secs(end));
        let samples = samples.borrow();
        rows.push(ThroughputRow {
            test: "MB test".to_owned(),
            mbps: goodput_from_samples(&samples, warmup * 1_000_000_000, end * 1_000_000_000),
            paper_mbps: 6.2,
            observed: samples.len(),
        });
    }

    // --- RMI test: uMiddle source -> echo -> uMiddle sink ---
    {
        eprintln!("e3: rmi test...");
        let (mut world, hub) = hub_world(33);
        let (h2, rt) = runtime_node(&mut world, "n2", 0, &[hub]);
        let n3 = world.add_node("n3");
        world.attach(n3, hub).unwrap();
        world.add_process(n3, Box::new(platform_rmi::RmiRegistry::new()));
        let registry = Addr::new(n3, platform_rmi::REGISTRY_PORT);
        world.add_process(
            n3,
            Box::new(platform_rmi::RmiObjectServer::echo(2099, registry)),
        );
        world.add_process(
            h2,
            Box::new(RmiMapper::new(
                rt,
                UsdlLibrary::bundled(),
                registry,
                vec!["EchoService".to_owned()],
            )),
        );
        let src_shape = Shape::builder()
            .digital(
                "out",
                Direction::Output,
                "application/octet-stream".parse().unwrap(),
            )
            .build()
            .unwrap();
        world.add_process(
            h2,
            Box::new(NativeService::new(
                "RMI Feeder",
                src_shape,
                rt,
                Box::new(behaviors::PeriodicSource::new(
                    "out",
                    SimDuration::from_millis(1),
                    0,
                    |_| {
                        UMessage::new(
                            "application/octet-stream".parse().unwrap(),
                            vec![0xEF; 1400],
                        )
                    },
                )),
            )),
        );
        let meter = ByteMeter::new();
        let samples = Rc::clone(&meter.samples);
        world.add_process(
            h2,
            Box::new(NativeService::new(
                "RMI Meter",
                Shape::builder()
                    .digital(
                        "in",
                        Direction::Input,
                        "application/octet-stream".parse().unwrap(),
                    )
                    .build()
                    .unwrap(),
                rt,
                Box::new(meter),
            )),
        );
        world.add_process(
            h2,
            Box::new(Wirer::new(
                rt,
                vec![
                    WireRule::new("RMI Feeder", "out", "EchoService", "request")
                        .with_qos(QosPolicy::bounded_drop_newest(64 * 1024)),
                    WireRule::new("EchoService", "response", "RMI Meter", "in"),
                ],
            )),
        );
        world.run_until(SimTime::from_secs(end));
        let samples = samples.borrow();
        rows.push(ThroughputRow {
            test: "RMI test".to_owned(),
            mbps: goodput_from_samples(&samples, warmup * 1_000_000_000, end * 1_000_000_000),
            paper_mbps: 3.2,
            observed: samples.len(),
        });
    }

    // --- RMI-MB test: MB channel -> RMI echo -> uMiddle sink ---
    {
        eprintln!("e3: rmi-mb test...");
        let (mut world, meter) = rmi_mb_world(34);
        let samples = Rc::clone(&meter.samples);
        world.run_until(SimTime::from_secs(end));
        // Each sample is one acknowledged 1400-byte delivery; compute
        // goodput from the delivery count in the window.
        let samples = samples.borrow();
        let in_window = samples
            .iter()
            .filter(|(t, _)| *t >= warmup * 1_000_000_000 && *t <= end * 1_000_000_000)
            .count();
        let mbps = in_window as f64 * 1400.0 * 8.0 / measure_secs as f64 / 1e6;
        rows.push(ThroughputRow {
            test: "RMI-MB test".to_owned(),
            mbps,
            paper_mbps: 2.9,
            observed: samples.len(),
        });
    }

    rows
}

/// The E3 RMI-MB world (Figure 11): a paced MediaBroker channel on
/// `n1` feeds, through the runtime and both mappers on `n2`, the RMI
/// `echo_ack` object on `n3`; its acknowledgements come back through
/// uMiddle into the returned meter. Nothing runs until the caller runs
/// the world.
pub fn rmi_mb_world(seed: u64) -> (World, ByteMeter) {
    let (mut world, hub) = hub_world(seed);
    let n1 = world.add_node("n1");
    world.attach(n1, hub).unwrap();
    world.add_process(n1, Box::new(platform_mediabroker::MediaBroker::new()));
    let broker = Addr::new(n1, platform_mediabroker::BROKER_PORT);
    // Paced at ~4.7 Mbps: stands in for the TCP congestion control the
    // simulated transport lacks (see MbSaturatingProducer docs).
    world.add_process(
        n1,
        Box::new(MbSaturatingProducer::paced(
            broker,
            "bench",
            1400,
            SimDuration::from_micros(2_400),
        )),
    );
    let (h2, rt) = runtime_node(&mut world, "n2", 0, &[hub]);
    let n3 = world.add_node("n3");
    world.attach(n3, hub).unwrap();
    world.add_process(n3, Box::new(platform_rmi::RmiRegistry::new()));
    let registry = Addr::new(n3, platform_rmi::REGISTRY_PORT);
    // One-way delivery measurement: the RMI endpoint acknowledges
    // instead of echoing the payload (paper §5.3: "sends the messages
    // to the Java RMI service through uMiddle").
    world.add_process(
        n3,
        Box::new(platform_rmi::RmiObjectServer::echo_ack(2099, registry)),
    );
    world.add_process(
        h2,
        Box::new(MediaBrokerMapper::new(
            rt,
            UsdlLibrary::bundled(),
            broker,
            vec![],
        )),
    );
    world.add_process(
        h2,
        Box::new(RmiMapper::new(
            rt,
            UsdlLibrary::bundled(),
            registry,
            vec!["EchoService".to_owned()],
        )),
    );
    let meter = ByteMeter::new();
    world.add_process(
        h2,
        Box::new(NativeService::new(
            "Bridge Meter",
            Shape::builder()
                .digital(
                    "in",
                    Direction::Input,
                    "application/octet-stream".parse().unwrap(),
                )
                .build()
                .unwrap(),
            rt,
            Box::new(meter.clone()),
        )),
    );
    world.add_process(
        h2,
        Box::new(Wirer::new(
            rt,
            vec![
                WireRule::new("MB channel bench", "media-out", "EchoService", "request")
                    .with_qos(QosPolicy::bounded_drop_newest(64 * 1024)),
                WireRule::new("EchoService", "response", "Bridge Meter", "in"),
            ],
        )),
    );
    (world, meter)
}

// =====================================================================
// E4 — design-space ablation: direct vs mediated translation
// =====================================================================

/// Results of the translation-model ablation.
#[derive(Debug, Clone)]
pub struct AblationTranslationResults {
    /// `(device types, direct translators, mediated translators)` growth.
    pub growth: Vec<(usize, usize, usize)>,
    /// Images the hardwired direct bridge delivered in its scenario.
    pub direct_delivered: u64,
    /// RenderMedia actions the mediated stack delivered in the same
    /// scenario.
    pub mediated_delivered: u64,
}

/// Runs the E4 ablation: the n(n−1)-vs-n growth table, plus both bridge
/// styles driving the camera→TV scenario.
pub fn e4_ablation_translation() -> AblationTranslationResults {
    use platform_bluetooth::BipCamera;
    use platform_upnp::{MediaRendererLogic, UpnpDevice};

    let growth: Vec<(usize, usize, usize)> = [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&n| {
            let c = direct::translators_required(n);
            (n, c.direct, c.mediated)
        })
        .collect();

    // Direct bridge scenario.
    let direct_delivered = {
        let (mut world, hub) = hub_world(41);
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
        let bridge_node = world.add_node("bridge");
        world.attach(bridge_node, hub).unwrap();
        world.attach(bridge_node, pico).unwrap();
        let cam_node = world.add_node("camera");
        world.attach(cam_node, pico).unwrap();
        world.add_process(cam_node, Box::new(BipCamera::new("Cam", 3, 10_000)));
        let tv_node = world.add_node("tv");
        world.attach(tv_node, hub).unwrap();
        world.add_process(
            tv_node,
            Box::new(UpnpDevice::new(
                Box::new(MediaRendererLogic::new("TV", "uuid:tv")),
                5000,
            )),
        );
        world.add_process(
            bridge_node,
            Box::new(direct::DirectBipToRendererBridge::new(
                6000,
                SimDuration::from_secs(10),
            )),
        );
        world.run_until(SimTime::from_secs(60));
        world.trace().counter("direct_bridge.delivered")
    };

    // Mediated scenario: same devices through uMiddle.
    let mediated_delivered = {
        let (mut world, hub) = hub_world(42);
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
        let (h1, rt) = runtime_node(&mut world, "h1", 0, &[hub, pico]);
        let cam_node = world.add_node("camera");
        world.attach(cam_node, pico).unwrap();
        world.add_process(cam_node, Box::new(BipCamera::new("Cam", 3, 10_000)));
        let tv_node = world.add_node("tv");
        world.attach(tv_node, hub).unwrap();
        world.add_process(
            tv_node,
            Box::new(UpnpDevice::new(
                Box::new(MediaRendererLogic::new("TV", "uuid:tv")),
                5000,
            )),
        );
        world.add_process(
            h1,
            Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
        );
        world.add_process(
            h1,
            Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
        );
        // A trigger that captures every 10 s.
        let shape = Shape::builder()
            .digital("press", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap();
        world.add_process(
            h1,
            Box::new(NativeService::new(
                "Trigger",
                shape,
                rt,
                Box::new(behaviors::PeriodicSource::new(
                    "press",
                    SimDuration::from_secs(10),
                    0,
                    |_| UMessage::text("snap"),
                )),
            )),
        );
        world.add_process(
            h1,
            Box::new(Wirer::new(
                rt,
                vec![
                    WireRule::new("Trigger", "press", "Cam", "capture"),
                    WireRule::new("Cam", "image-out", "TV", "media-in"),
                ],
            )),
        );
        world.run_until(SimTime::from_secs(60));
        world.trace().counter("upnp.actions")
    };

    AblationTranslationResults {
        growth,
        direct_delivered,
        mediated_delivered,
    }
}

// =====================================================================
// E5 — QoS ablation (the paper's future work, §5.3/§7)
// =====================================================================

/// One QoS-policy row.
#[derive(Debug, Clone)]
pub struct QosRow {
    /// Policy label.
    pub policy: String,
    /// Messages delivered to the slow consumer.
    pub delivered: u64,
    /// Messages dropped by the policy.
    pub dropped: u64,
    /// High-water mark of buffered bytes.
    pub max_buffered: usize,
}

/// Runs the QoS ablation: a fast producer against a slow consumer under
/// different translation-buffer policies.
pub fn e5_ablation_qos() -> Vec<QosRow> {
    let policies: Vec<(String, QosPolicy)> = vec![
        (
            "unbounded (paper's original)".to_owned(),
            QosPolicy::unbounded(),
        ),
        (
            "bounded 16 KiB, drop-oldest".to_owned(),
            QosPolicy::bounded_drop_oldest(16 * 1024),
        ),
        (
            "bounded 16 KiB, drop-newest".to_owned(),
            QosPolicy::bounded_drop_newest(16 * 1024),
        ),
        (
            "bounded 16 KiB + 20 KB/s token bucket".to_owned(),
            QosPolicy::bounded_drop_oldest(16 * 1024).with_rate(20_000, 4_096),
        ),
    ];
    let mut rows = Vec::new();
    for (i, (label, qos)) in policies.into_iter().enumerate() {
        let (mut world, hub) = hub_world(50 + i as u64);
        let node = world.add_node("host");
        world.attach(node, hub).unwrap();
        let rt_obj = umiddle_core::UmiddleRuntime::new(umiddle_core::RuntimeConfig::new(
            umiddle_core::RuntimeId(0),
        ));
        let rt_stats = rt_obj.stats_handle();
        let rt = world.add_process(node, Box::new(rt_obj));

        let src_shape = Shape::builder()
            .digital("out", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap();
        world.add_process(
            node,
            Box::new(NativeService::new(
                "Fast Producer",
                src_shape,
                rt,
                Box::new(behaviors::PeriodicSource::new(
                    "out",
                    SimDuration::from_millis(5),
                    2000,
                    |i| {
                        UMessage::new("text/plain".parse().unwrap(), vec![b'x'; 1000])
                            .with_meta("seq", i.to_string())
                    },
                )),
            )),
        );
        let mut consumer = behaviors::Echo::new("unused-out");
        consumer.cost = SimDuration::from_millis(50);
        let count = Rc::clone(&consumer.count);
        let sink_shape = Shape::builder()
            .digital("in", Direction::Input, "text/plain".parse().unwrap())
            .digital(
                "unused-out",
                Direction::Output,
                "text/plain".parse().unwrap(),
            )
            .build()
            .unwrap();
        world.add_process(
            node,
            Box::new(NativeService::new(
                "Slow Consumer",
                sink_shape,
                rt,
                Box::new(consumer),
            )),
        );
        world.add_process(
            node,
            Box::new(Wirer::new(
                rt,
                vec![WireRule::new("Fast Producer", "out", "Slow Consumer", "in").with_qos(qos)],
            )),
        );
        world.run_until(SimTime::from_secs(60));
        let stats = *rt_stats.borrow();
        rows.push(QosRow {
            policy: label,
            delivered: *count.borrow(),
            dropped: stats.qos_dropped,
            max_buffered: stats.max_buffered_bytes,
        });
    }
    rows
}

// =====================================================================
// E6 — directory scalability across runtimes
// =====================================================================

/// One directory-scale row.
#[derive(Debug, Clone)]
pub struct DirectoryScaleRow {
    /// Number of runtimes.
    pub runtimes: usize,
    /// Translators per runtime.
    pub per_runtime: usize,
    /// Time until every runtime's watcher saw every translator.
    pub convergence: SimDuration,
    /// Total directory datagrams on the wire.
    pub advertisements: u64,
}

/// Runs the directory-scalability experiment: N runtimes × M services,
/// measuring federation-wide convergence.
pub fn e6_directory_scale(sizes: &[usize], per_runtime: usize) -> Vec<DirectoryScaleRow> {
    use umiddle_core::{DirectoryEvent, Query, RuntimeClient, RuntimeEvent};

    struct Watcher {
        runtime: simnet::ProcId,
        expected: usize,
        seen: Rc<RefCell<usize>>,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }
    impl Process for Watcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let client = RuntimeClient::new(self.runtime);
            client.add_listener(ctx, Query::All);
        }
        fn on_local(
            &mut self,
            ctx: &mut Ctx<'_>,
            _from: simnet::ProcId,
            msg: simnet::LocalMessage,
        ) {
            let Ok(event) = msg.downcast::<RuntimeEvent>() else {
                return;
            };
            if let RuntimeEvent::Directory(DirectoryEvent::Appeared(_)) = *event {
                let mut seen = self.seen.borrow_mut();
                *seen += 1;
                if *seen >= self.expected && self.done_at.borrow().is_none() {
                    *self.done_at.borrow_mut() = Some(ctx.now());
                }
            }
        }
    }

    let mut rows = Vec::new();
    for &n in sizes {
        let (mut world, hub) = hub_world(60 + n as u64);
        let mut watchers = Vec::new();
        for i in 0..n {
            let (node, rt) = runtime_node(&mut world, &format!("h{i}"), i as u32, &[hub]);
            for j in 0..per_runtime {
                let shape = Shape::builder()
                    .digital("out", Direction::Output, "text/plain".parse().unwrap())
                    .build()
                    .unwrap();
                world.add_process(
                    node,
                    Box::new(NativeService::new(
                        &format!("svc-{i}-{j}"),
                        shape,
                        rt,
                        Box::new(behaviors::Recorder::new()),
                    )),
                );
            }
            let done_at = Rc::new(RefCell::new(None));
            let seen = Rc::new(RefCell::new(0));
            world.add_process(
                node,
                Box::new(Watcher {
                    runtime: rt,
                    expected: n * per_runtime,
                    seen,
                    done_at: Rc::clone(&done_at),
                }),
            );
            watchers.push(done_at);
        }
        world.run_until(SimTime::from_secs(60));
        let convergence = watchers
            .iter()
            .filter_map(|d| *d.borrow())
            .max()
            .unwrap_or(SimTime::from_secs(60));
        rows.push(DirectoryScaleRow {
            runtimes: n,
            per_runtime,
            convergence: convergence.saturating_since(SimTime::ZERO),
            advertisements: world.trace().counter("umiddle.registrations"),
        });
    }
    rows
}

// =====================================================================
// E7 — ablation: aggregated vs scattered visibility (§2.2.2 / §3.6)
// =====================================================================

/// Results of the visibility ablation.
#[derive(Debug, Clone)]
pub struct ScatterResults {
    /// Camera-capture execution (mapper input → image emitted) when the
    /// command originates inside the semantic space.
    pub aggregated_capture: SimDuration,
    /// The same execution when the command originates from a native UPnP
    /// control point through the exporter — should match: the bridge work
    /// is identical.
    pub scattered_capture: SimDuration,
    /// The *additional* command-delivery hop scattering introduces: the
    /// native control point's SOAP round trip to the exporter.
    pub scattered_command_rt: SimDuration,
    /// Captures measured in each mode.
    pub samples: (usize, usize),
}

/// Runs the scattered-visibility ablation: the identical Bluetooth
/// camera capture, once commanded from inside the intermediary semantic
/// space, once from a native UPnP control point through the exporter.
pub fn e7_ablation_scatter() -> ScatterResults {
    use platform_bluetooth::BipCamera;
    use umiddle_bridges::UpnpExporter;

    // --- aggregated: a native uMiddle trigger fires the shutter ---
    let aggregated = {
        let (mut world, hub) = hub_world(71);
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
        let (h1, rt) = runtime_node(&mut world, "h1", 0, &[hub, pico]);
        let cam_node = world.add_node("camera");
        world.attach(cam_node, pico).unwrap();
        world.add_process(cam_node, Box::new(BipCamera::new("Cam", 1, 8_000)));
        let mapper = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
        let stats = mapper.stats_handle();
        world.add_process(h1, Box::new(mapper));
        let shape = Shape::builder()
            .digital("press", Direction::Output, "text/plain".parse().unwrap())
            .build()
            .unwrap();
        world.add_process(
            h1,
            Box::new(NativeService::new(
                "Trigger",
                shape,
                rt,
                Box::new(behaviors::PeriodicSource::new(
                    "press",
                    SimDuration::from_secs(10),
                    10,
                    |_| UMessage::text("snap"),
                )),
            )),
        );
        world.add_process(
            h1,
            Box::new(Wirer::new(
                rt,
                vec![WireRule::new("Trigger", "press", "Cam", "capture")],
            )),
        );
        world.run_until(SimTime::from_secs(130));
        let latencies = stats.borrow().action_latencies;
        (latencies.mean(), latencies.len())
    };

    // --- scattered: a native UPnP control point via the exporter ---
    let scattered = {
        use platform_upnp::{ControlPoint, CpEvent, SoapCall};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct NativeCp {
            cp: ControlPoint,
            target: Option<Addr>,
            pending_start: Option<SimTime>,
            latencies: Rc<RefCell<Vec<SimDuration>>>,
            shots: u32,
        }
        impl NativeCp {
            fn fire(&mut self, ctx: &mut Ctx<'_>) {
                if let (Some(location), None) = (self.target, self.pending_start) {
                    self.pending_start = Some(ctx.now());
                    let call = SoapCall::new("Exported", "SetCapture").with_arg("Value", "snap");
                    let _ = self.cp.invoke(ctx, location, &call, u64::from(self.shots));
                }
            }
        }
        impl Process for NativeCp {
            fn name(&self) -> &str {
                "native-cp"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.bind(7000).unwrap();
                let _ = ctx.join_group(platform_upnp::SSDP_GROUP);
                self.cp.listen_events(ctx, 7001);
                ctx.set_timer(SimDuration::from_secs(5), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                match token {
                    1 if self.target.is_none() => {
                        self.cp.search(ctx, "urn:umiddle:device:Exported:1", 7000);
                        ctx.set_timer(SimDuration::from_secs(5), 1);
                    }
                    2 => self.fire(ctx),
                    _ => {}
                }
            }
            fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: simnet::Datagram) {
                if let Some(CpEvent::DeviceSeen { location, .. }) = self.cp.handle_ssdp(ctx, &d) {
                    if self.target.is_none() {
                        self.target = Some(location);
                        ctx.set_timer(SimDuration::from_secs(5), 2);
                    }
                }
            }
            fn on_stream(
                &mut self,
                ctx: &mut Ctx<'_>,
                s: simnet::StreamId,
                e: simnet::StreamEvent,
            ) {
                for ev in self.cp.handle_stream(ctx, s, e) {
                    if matches!(ev, CpEvent::ActionResult { .. }) {
                        if let Some(start) = self.pending_start.take() {
                            self.latencies
                                .borrow_mut()
                                .push(ctx.now().saturating_since(start));
                            self.shots += 1;
                            if self.shots < 10 {
                                ctx.set_timer(SimDuration::from_secs(10), 2);
                            }
                        }
                    }
                }
            }
        }

        let (mut world, hub) = hub_world(72);
        let pico = world.add_segment(SegmentConfig::bluetooth_piconet());
        let (h1, rt) = runtime_node(&mut world, "h1", 0, &[hub, pico]);
        let cam_node = world.add_node("camera");
        world.attach(cam_node, pico).unwrap();
        world.add_process(cam_node, Box::new(BipCamera::new("Cam", 1, 8_000)));
        let mapper = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
        let mapper_stats = mapper.stats_handle();
        world.add_process(h1, Box::new(mapper));
        world.add_process(
            h1,
            Box::new(UpnpExporter::new(
                rt,
                umiddle_core::Query::Platform("bluetooth".to_owned()),
                6100,
            )),
        );
        let cp_node = world.add_node("cp");
        world.attach(cp_node, hub).unwrap();
        let latencies = Rc::new(RefCell::new(Vec::new()));
        world.add_process(
            cp_node,
            Box::new(NativeCp {
                cp: ControlPoint::new(),
                target: None,
                pending_start: None,
                latencies: Rc::clone(&latencies),
                shots: 0,
            }),
        );
        world.run_until(SimTime::from_secs(180));
        let soap_rts = latencies.borrow().clone();
        let captures = mapper_stats.borrow().action_latencies;
        (captures.mean(), mean(&soap_rts), captures.len())
    };

    ScatterResults {
        aggregated_capture: aggregated.0,
        scattered_capture: scattered.0,
        scattered_command_rt: scattered.1,
        samples: (aggregated.1, scattered.2),
    }
}

// =====================================================================
// E8 — observability: metrics registry + path spans
// =====================================================================

/// Results of the observability run: the federation-wide metrics
/// snapshot, one reconstructed cross-platform path, its critical-path
/// breakdown, and the deterministic trace exports.
#[derive(Debug, Clone)]
pub struct ObservabilityResults {
    /// Every counter, gauge and latency histogram the run produced.
    pub snapshot: simnet::MetricsSnapshot,
    /// Total spans recorded across all paths.
    pub span_count: usize,
    /// Spans the ring journal overwrote (0 for this run).
    pub spans_overwritten: u64,
    /// Correlation id of the bridged Bluetooth→UPnP path.
    pub bridged_corr: Option<u64>,
    /// One Bluetooth→uMiddle→UPnP path, reconstructed from its spans.
    pub sample_path: Vec<String>,
    /// Per-stage latency attribution for the bridged path, aggregated
    /// over all 100 mouse signals.
    pub critical_path: Option<simnet::CriticalPath>,
    /// Chrome/Perfetto `trace_event` JSON of every span (load in
    /// `ui.perfetto.dev`). Byte-identical across seeded runs.
    pub perfetto: String,
    /// Folded-stack flamegraph lines, weighted by span self time (ns).
    /// Byte-identical across seeded runs.
    pub folded: String,
}

/// Runs the observability experiment: a two-runtime federation bridging
/// a Bluetooth mouse (h1) to a UPnP light (h2), instrumented end to end.
///
/// The snapshot contains the paper-figure-aligned histograms —
/// `umiddle.discovery_latency` (§3.6 advertisement propagation),
/// `umiddle.translation_latency` / `bridge.*.translation` (§5.2 per-hop
/// overhead) and `umiddle.path_latency` (end-to-end §5.2) — and is
/// byte-for-byte deterministic for a fixed seed.
pub fn e8_observability() -> ObservabilityResults {
    use platform_bluetooth::{HidpMouse, MouseConfig};
    use platform_upnp::{LightLogic, UpnpDevice};

    let mut world = World::new(42);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

    // h1 (rt0): the Bluetooth half of the federation.
    let (h1, rt1) = runtime_node(&mut world, "h1", 0, &[hub, pico]);
    let mouse_node = world.add_node("mouse");
    world.attach(mouse_node, pico).unwrap();
    world.add_process(
        mouse_node,
        Box::new(HidpMouse::new(MouseConfig {
            name: "Obs Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(400)),
            motion_interval: None,
            click_limit: 50, // 50 press + 50 release = 100 signals
        })),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled())),
    );

    // h2 (rt1): the UPnP half.
    let (h2, rt2) = runtime_node(&mut world, "h2", 1, &[hub]);
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

    // Wire mouse clicks to the light across the federation: every click
    // makes the two-hop bridge path Bluetooth → rt0 → rt1 → UPnP.
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

    world.run_until(SimTime::from_secs(60));

    let trace = world.trace();
    let spans: Vec<SpanRecord> = trace.spans().collect();
    let corr = spans
        .iter()
        .find(|s| s.stage == "bridge.upnp.input")
        .map(|s| s.corr);
    let sample_path = corr
        .map(|c| {
            // The first click's complete journey: everything up to and
            // including the first UPnP bridge hop.
            let spans: Vec<_> = trace.spans_for(c).collect();
            let end = spans
                .iter()
                .position(|s| s.stage == "bridge.upnp.input")
                .map_or(spans.len(), |i| i + 1);
            spans[..end]
                .iter()
                .map(|s| {
                    let dur = match s.duration() {
                        Some(d) if !d.is_zero() => d.to_string(),
                        Some(_) => "·".to_owned(),
                        None => "open".to_owned(),
                    };
                    format!(
                        "{:>14} {:>12}  {:<18} {:<22} {}",
                        s.start.to_string(),
                        dur,
                        s.source,
                        s.stage,
                        s.detail
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let critical_path = corr.and_then(|c| simnet::CriticalPath::analyze(&spans, c));

    ObservabilityResults {
        snapshot: trace.metrics().snapshot(),
        span_count: spans.len(),
        spans_overwritten: trace.ring_overwrites(),
        bridged_corr: corr,
        sample_path,
        critical_path,
        perfetto: simnet::perfetto_trace_json(&spans).document(),
        folded: simnet::folded_stacks(&spans),
    }
}

// =====================================================================
// E9 — scheduler scaling: 100 → 1000 devices across all six bridges
// =====================================================================

/// One row of the E9 federation sweep.
#[derive(Debug, Clone)]
pub struct SchedScaleRow {
    /// Total native devices in the federation.
    pub devices: usize,
    /// Scheduler events dispatched inside the measurement window.
    pub events: u64,
    /// Wall-clock seconds spent simulating the window (`run_until` loop).
    pub wall_secs: f64,
    /// Events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// p99 wall-clock cost of dispatching one event, in nanoseconds.
    pub p99_dispatch_ns: u64,
    /// Payload-buffer allocations per dispatched event in the window.
    pub allocs_per_event: f64,
}

/// Builds the E9 federation: `n` native devices split near-evenly
/// across all six bridge platforms, each population producing steady
/// per-device traffic into native sinks on the runtime host.
///
/// Each mapper serializes its per-message `busy` translation cost.
/// Rates were sized to keep the mappers below saturation, but at
/// n = 1000 the UPnP mapper does not keep up: by 300 virtual s its
/// lights have executed 7,294 of the 12,525 toggles offered (58%), and
/// the runtime's path buffers grow without bound (0.36 MB at 300 s,
/// 0.69 MB at 600 s). The kernel carries that backlog as one deferred
/// entry per busy horizon, so the sweep still measures dispatch cost
/// per event rather than backlog churn.
///
/// The same sizing discipline applies to the network: the backbone is
/// a switched segment (per-sender capacity) rather than the paper's
/// 10 Mbps hub, and the 38.4 kbps mote radio is split into channels
/// of at most 32 motes. A shared medium with aggregate load above
/// line rate never reaches steady state — its busy horizon recedes
/// and undelivered frames accumulate in the scheduler without bound —
/// which would turn the sweep into a measurement of backlog churn.
fn e9_world(n: usize) -> World {
    use platform_bluetooth::{HidpMouse, MouseConfig};
    use platform_motes::{BaseStation, Mote};
    use platform_rmi::{JavaValue, RmiObjectServer, RmiRegistry, REGISTRY_PORT};
    use platform_upnp::{LightLogic, UpnpDevice};
    use platform_webservices::WsServer;
    use umiddle_bridges::{MotesMapper, WsMapper};

    let mut world = World::new(0xE9 + n as u64);

    // Six near-equal groups, one per bridge platform.
    let group = |k: usize| n / 6 + usize::from(k < n % 6);

    let hub = world.add_segment(SegmentConfig::ethernet_100mbps_switch());
    let (h1, rt) = runtime_node(&mut world, "h1", 0, &[hub]);

    // UPnP lights, toggled in fan-out by one native driver.
    for i in 0..group(0) {
        let node = world.add_node(format!("light{i}"));
        world.attach(node, hub).expect("attach");
        world.add_process(
            node,
            Box::new(UpnpDevice::new(
                Box::new(LightLogic::new(
                    &format!("E9 Light {i:04}"),
                    &format!("uuid:e9l{i}"),
                )),
                5000,
            )),
        );
    }
    world.add_process(
        h1,
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Bluetooth mice, clicking forever. A piconet holds the master
    // plus at most 7 slaves, so the population is spread across
    // piconets with the host (and its mapper) joined to each.
    let mut pico = None;
    for i in 0..group(1) {
        if i % 7 == 0 {
            let p = world.add_segment(SegmentConfig::bluetooth_piconet());
            world.attach(h1, p).expect("attach");
            pico = Some(p);
        }
        let node = world.add_node(format!("mouse{i}"));
        world
            .attach(node, pico.expect("piconet created"))
            .expect("attach");
        world.add_process(
            node,
            Box::new(HidpMouse::new(MouseConfig {
                name: format!("HIDP Mouse {i:04}"),
                click_interval: Some(SimDuration::from_secs(12)),
                motion_interval: None,
                click_limit: 0,
            })),
        );
    }
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Motes reporting temperature on sensor radios, split into
    // channels of 32 so the 38.4 kbps medium stays below saturation.
    let mut radio = None;
    for i in 0..group(2) {
        if i % 32 == 0 {
            let r = world.add_segment(SegmentConfig::mote_radio());
            world.attach(h1, r).expect("attach");
            radio = Some(r);
        }
        let node = world.add_node(format!("mote{i}"));
        world
            .attach(node, radio.expect("radio created above"))
            .expect("attach");
        world.add_process(
            node,
            Box::new(Mote::new(i as u16 + 1, SimDuration::from_secs(2))),
        );
    }
    let motes_mapper = world.add_process(
        h1,
        Box::new(MotesMapper::new(rt, UsdlLibrary::bundled(), None)),
    );
    world.add_process(h1, Box::new(BaseStation::new(Some(motes_mapper))));

    // RMI echo objects behind one registry; each name gets its own
    // templated USDL document (the paper's no-code extensibility path).
    let reg_node = world.add_node("rmi-registry");
    world.attach(reg_node, hub).expect("attach");
    world.add_process(reg_node, Box::new(RmiRegistry::new()));
    let registry = Addr::new(reg_node, REGISTRY_PORT);
    let srv_node = world.add_node("rmi-objects");
    world.attach(srv_node, hub).expect("attach");
    let mut rmi_lib = UsdlLibrary::bundled();
    let mut rmi_names = Vec::new();
    for i in 0..group(3) {
        let name = format!("EchoSvc {i:04}");
        rmi_lib
            .register_xml(&umiddle_usdl::builtin::RMI_ECHO.replace("EchoService", &name))
            .expect("templated RMI USDL is valid");
        world.add_process(
            srv_node,
            Box::new(RmiObjectServer::new(
                &name,
                3000 + i as u16,
                registry,
                Box::new(|method, args| {
                    if method == "echo" {
                        Ok(args.first().cloned().unwrap_or(JavaValue::Null))
                    } else {
                        Err(format!("java.rmi.ServerException: no method {method}"))
                    }
                }),
            )),
        );
        rmi_names.push(name);
    }
    world.add_process(
        h1,
        Box::new(RmiMapper::new(rt, rmi_lib, registry, rmi_names)),
    );

    // MediaBroker channels fed by paced producers.
    let mb_node = world.add_node("broker");
    world.attach(mb_node, hub).expect("attach");
    world.add_process(mb_node, Box::new(platform_mediabroker::MediaBroker::new()));
    let broker_addr = Addr::new(mb_node, platform_mediabroker::BROKER_PORT);
    for i in 0..group(4) {
        world.add_process(
            mb_node,
            Box::new(MbSaturatingProducer::paced(
                broker_addr,
                &format!("e9chan{i:04}"),
                256,
                SimDuration::from_secs(1),
            )),
        );
    }
    world.add_process(
        h1,
        Box::new(MediaBrokerMapper::new(
            rt,
            UsdlLibrary::bundled(),
            broker_addr,
            vec![],
        )),
    );

    // Web-service loggers, appended to in fan-out and tailed back out.
    let ws_node = world.add_node("ws");
    world.attach(ws_node, hub).expect("attach");
    let mut endpoints = Vec::new();
    for i in 0..group(5) {
        let port = 8080 + i as u16;
        world.add_process(
            ws_node,
            Box::new(WsServer::logger(&format!("E9 Log {i:04}"), port)),
        );
        endpoints.push(Addr::new(ws_node, port));
    }
    world.add_process(
        h1,
        Box::new(WsMapper::new(rt, UsdlLibrary::bundled(), endpoints)),
    );

    // Native drivers (fan-out sources) and sinks on the runtime host.
    let out_shape = |port: &str, mime: &str| {
        Shape::builder()
            .digital(port, Direction::Output, mime.parse().expect("static mime"))
            .build()
            .expect("valid shape")
    };
    let in_shape = |mime: &str| {
        Shape::builder()
            .digital("in", Direction::Input, mime.parse().expect("static mime"))
            .build()
            .expect("valid shape")
    };
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Toggle Driver",
            out_shape("out", "text/plain"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(4),
                0,
                |_| UMessage::text("1"),
            )),
        )),
    );
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Call Driver",
            out_shape("out", "application/octet-stream"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(2),
                0,
                |i| {
                    UMessage::new(
                        "application/octet-stream".parse().expect("static mime"),
                        vec![i as u8; 128],
                    )
                },
            )),
        )),
    );
    world.add_process(
        h1,
        Box::new(NativeService::new(
            "Log Driver",
            out_shape("out", "text/plain"),
            rt,
            Box::new(behaviors::PeriodicSource::new(
                "out",
                SimDuration::from_secs(4),
                0,
                |i| UMessage::text(format!("entry {i}")),
            )),
        )),
    );
    for (name, mime) in [
        ("Click Sink", "text/plain"),
        ("Temp Sink", "text/plain"),
        ("Echo Sink", "application/octet-stream"),
        ("Media Sink", "application/octet-stream"),
        ("Log Sink", "text/plain"),
    ] {
        world.add_process(
            h1,
            Box::new(NativeService::new(
                name,
                in_shape(mime),
                rt,
                Box::new(behaviors::Recorder::new()),
            )),
        );
    }

    // Prefix groups instead of per-device rules: each rule fans out
    // over a whole device population (the wirer connects the cross
    // product of its matches).
    let rules = vec![
        WireRule::new("Toggle Driver", "out", "E9 Light", "switch-on"),
        WireRule::new("HIDP Mouse", "clicks", "Click Sink", "in"),
        WireRule::new("Mote ", "temperature", "Temp Sink", "in"),
        WireRule::new("Call Driver", "out", "EchoSvc", "request"),
        WireRule::new("EchoSvc", "response", "Echo Sink", "in"),
        WireRule::new("MB channel e9chan", "media-out", "Media Sink", "in"),
        WireRule::new("Log Driver", "out", "E9 Log", "log-in"),
        WireRule::new("E9 Log", "entries", "Log Sink", "in"),
    ];

    world.add_process(h1, Box::new(Wirer::new(rt, rules)));
    world
}

/// Virtual time allowed for discovery, mapping, and wiring before the
/// E9 measurement window opens. Sized for the slowest mapper at
/// n = 1000 (UPnP: ~167 lights × ~270 ms serialized instantiation).
const E9_SETUP: u64 = 90;

/// Runs one E9 federation size: a `run_until` pass for events/sec and
/// allocations/event, then an identically seeded single-step pass for
/// per-event dispatch latency.
fn e9_one(n: usize, measure: SimDuration) -> SchedScaleRow {
    let setup = SimTime::from_secs(E9_SETUP);

    // Pass A — `run_until` event loop, wall-clock throughput.
    let mut world = e9_world(n);
    world.run_until(setup);
    let ev0 = world.events_processed();
    let allocs0 = world.trace().counter("payload.allocs");
    let t0 = std::time::Instant::now();
    world.run_until(setup + measure);
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let events = world.events_processed() - ev0;
    let allocs = world.trace().counter("payload.allocs") - allocs0;

    // Pass B — same world rebuilt from the same seed, stepping one
    // event at a time to time each dispatch individually.
    let mut world = e9_world(n);
    world.run_until(setup);
    let deadline = setup + measure;
    let mut lat: Vec<u64> = Vec::with_capacity(events as usize + 1024);
    loop {
        let t = std::time::Instant::now();
        if !world.step() {
            break;
        }
        lat.push(t.elapsed().as_nanos() as u64);
        if world.now() >= deadline {
            break;
        }
    }
    lat.sort_unstable();
    let p99 = if lat.is_empty() {
        0
    } else {
        lat[(lat.len() * 99 / 100).min(lat.len() - 1)]
    };

    SchedScaleRow {
        devices: n,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
        p99_dispatch_ns: p99,
        allocs_per_event: if events == 0 {
            0.0
        } else {
            allocs as f64 / events as f64
        },
    }
}

/// Runs the E9 sweep: one federation per entry in `sizes`, measuring a
/// `measure`-long virtual window after a fixed warm-up.
pub fn e9_sched_scale(sizes: &[usize], measure: SimDuration) -> Vec<SchedScaleRow> {
    sizes.iter().map(|&n| e9_one(n, measure)).collect()
}

// =====================================================================
// E9b — busy deferral under bursty fan-in: scheduler pops per datagram
// =====================================================================

/// Port the E9b burst senders transmit from.
const E9B_SRC_PORT: u16 = 46_000;
/// Port the E9b collector receives on.
const E9B_SINK_PORT: u16 = 46_001;
/// Datagrams per sender per burst instant.
const E9B_BURST: usize = 8;
/// Phase cohorts the senders are staggered across. Senders in one
/// cohort share a timer phase, so their bursts *arrive* coincident;
/// spreading cohorts keeps each same-tick run a few dozen frames rather
/// than tens of thousands.
const E9B_PHASES: usize = 250;
/// Interval between burst instants.
const E9B_INTERVAL: SimDuration = SimDuration::from_millis(5);
/// Virtual warm-up before the measurement window opens.
const E9B_SETUP: u64 = 1;

/// Per-datagram handler CPU cost the E9b collector models. Real
/// pervasive handlers always cost CPU per message, so a burst of k
/// coincident datagrams queues behind a busy handler. The kernel
/// carries the queued deliveries as one scheduler entry per busy
/// horizon, so scheduler pops per delivered datagram stay flat as
/// bursts grow (the `--check` gate pins this). Sized so the collector
/// sits near 50% utilization at N = 1000 (8N datagrams per 5 ms
/// interval), keeping the fixture in steady state rather than overload.
const E9B_SINK_COST: SimDuration = SimDuration::from_nanos(300);

/// One row of the E9b busy-deferral sweep (per federation size): a
/// bursty fan-in world whose collector is busy for every datagram.
#[derive(Debug, Clone)]
pub struct DeferralRow {
    /// Burst senders fanning into the collector.
    pub devices: usize,
    /// Datagrams delivered inside the measurement window.
    pub delivered: u64,
    /// Delivered datagrams per wall second.
    pub delivered_per_sec: f64,
    /// Scheduler pops ([`World::events_processed`]) per delivered
    /// datagram inside the window. Deterministic.
    pub pops_per_delivered: f64,
}

/// Timer-driven source that emits `E9B_BURST` same-size datagrams at
/// every burst instant. Senders in one phase cohort share the timer
/// phase, so on the full-duplex switch their frames *arrive*
/// coincident.
struct BurstSender {
    target: Addr,
    phase: SimDuration,
}

impl Process for BurstSender {
    fn name(&self) -> &str {
        "e9b-burst-sender"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(E9B_SRC_PORT).expect("sender port free");
        let first = E9B_INTERVAL + self.phase;
        ctx.set_timer(first, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for _ in 0..E9B_BURST {
            // Zero-length payloads: `Vec::new()` never allocates, so
            // the send side stays as cheap as possible.
            let _ = ctx.send_to(E9B_SRC_PORT, self.target, Vec::new());
        }
        ctx.set_timer(E9B_INTERVAL, 0);
    }
}

/// Sink absorbing the fan-in, modelling [`E9B_SINK_COST`] of CPU per
/// datagram and counting deliveries through a shared handle.
struct BusyCollector {
    delivered: Rc<RefCell<u64>>,
}

impl Process for BusyCollector {
    fn name(&self) -> &str {
        "e9b-collector"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(E9B_SINK_PORT).expect("collector port free");
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _d: simnet::Datagram) {
        *self.delivered.borrow_mut() += 1;
        ctx.busy(E9B_SINK_COST);
    }
}

/// Builds the E9b world: `n` synchronized burst senders on a switched
/// segment fanning into one collector. Full duplex matters — a
/// half-duplex medium serializes the burst through its busy window and
/// no same-tick runs ever form (see
/// [`SegmentConfig::ethernet_100mbps_switch`]).
fn e9b_world(n: usize) -> (World, Rc<RefCell<u64>>) {
    let delivered = Rc::new(RefCell::new(0u64));
    let mut world = World::new(0x9B + n as u64);
    let net = world.add_segment(SegmentConfig::ethernet_100mbps_switch());
    let sink_node = world.add_node("collector");
    world.attach(sink_node, net).expect("attach");
    world.add_process(
        sink_node,
        Box::new(BusyCollector {
            delivered: Rc::clone(&delivered),
        }),
    );
    let target = Addr::new(sink_node, E9B_SINK_PORT);
    let phase_step = SimDuration::from_nanos(E9B_INTERVAL.as_nanos() / E9B_PHASES as u64);
    for i in 0..n {
        let node = world.add_node(format!("burst{i}"));
        world.attach(node, net).expect("attach");
        let phase = SimDuration::from_nanos(phase_step.as_nanos() * (i % E9B_PHASES) as u64);
        world.add_process(node, Box::new(BurstSender { target, phase }));
    }
    (world, delivered)
}

/// Runs the E9b busy-deferral sweep at each federation size: one
/// measured window per size, reporting delivered datagrams per wall
/// second and scheduler pops per delivered datagram.
pub fn e9b_deferral_sweep(sizes: &[usize], measure: SimDuration) -> Vec<DeferralRow> {
    let setup = SimTime::from_secs(E9B_SETUP);
    sizes
        .iter()
        .map(|&n| {
            let (mut world, count) = e9b_world(n);
            world.run_until(setup);
            let d0 = *count.borrow();
            let e0 = world.events_processed();
            let t0 = std::time::Instant::now();
            world.run_until(setup + measure);
            let wall = t0.elapsed().as_secs_f64().max(1e-9);
            let delivered = *count.borrow() - d0;
            let pops = world.events_processed() - e0;
            DeferralRow {
                devices: n,
                delivered,
                delivered_per_sec: delivered as f64 / wall,
                pops_per_delivered: pops as f64 / delivered.max(1) as f64,
            }
        })
        .collect()
}

// =====================================================================
// E10 — telemetry plane: SLO burn-rate alerts + federation doctor
// =====================================================================

/// Port the fault-injection flood runs on.
const FLOOD_PORT: u16 = 47_000;

/// Timer-driven datagram source that holds a shared segment past
/// saturation. The first timer fires after `start_after` (the fault
/// instant); from then on one `size`-byte datagram goes out every
/// `period`, which is chosen below the frame's wire time so the
/// segment's busy horizon runs ahead of real time and queueing delay
/// grows for everyone sharing the medium.
struct Flooder {
    target: Addr,
    start_after: SimDuration,
    period: SimDuration,
    size: usize,
}

impl Process for Flooder {
    fn name(&self) -> &str {
        "e10-flooder"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(FLOOD_PORT).expect("flood port free");
        let after = self.start_after;
        ctx.set_timer(after, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let _ = ctx.send_to(FLOOD_PORT, self.target, vec![0u8; self.size]);
        let period = self.period;
        ctx.set_timer(period, 0);
    }
}

/// Absorbs the flood datagrams at the far end of the segment.
struct FloodSink;

impl Process for FloodSink {
    fn name(&self) -> &str {
        "e10-flood-sink"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.bind(FLOOD_PORT).expect("flood sink port free");
    }
}

/// Results of the telemetry fault-injection run.
#[derive(Debug, Clone)]
pub struct TelemetryFaultResults {
    /// The doctor's final health report.
    pub report: HealthReport,
    /// Deterministic JSON encoding of the report (the CI byte-diff
    /// artifact).
    pub doctor_json: String,
    /// OpenMetrics exposition of the final metrics snapshot.
    pub open_metrics: String,
    /// Every alert state transition the SLO engine recorded.
    pub transitions: Vec<AlertTransition>,
    /// Virtual time both faults were injected.
    pub fault_at: SimTime,
    /// When the UPnP availability SLO first reached `firing`.
    pub liveness_firing_at: Option<SimTime>,
    /// When the hub latency SLO first reached `firing`.
    pub latency_firing_at: Option<SimTime>,
    /// Telemetry samples taken over the run.
    pub samples: u64,
}

/// Builds the E10 fault-injection world — the E8 federation
/// (Bluetooth mouse on h1 bridged to a UPnP light on h2 over the
/// 10 Mbps hub) with the 500 ms sampler and both burn-rate SLOs armed,
/// and the hub flooder primed to fire at t = 30 s. Returns the world,
/// the UPnP mapper's id (so the caller can inject the silence fault),
/// and the fault instant. Shared by E10 and E13, which layer different
/// observers over the identical fault pair.
fn e10_world() -> (World, ProcId, SimTime) {
    use platform_bluetooth::{HidpMouse, MouseConfig};
    use platform_upnp::{LightLogic, UpnpDevice};

    let mut world = World::new(0xE10);
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub()); // seg0
    let pico = world.add_segment(SegmentConfig::bluetooth_piconet());

    // h1 (rt0): the Bluetooth half. Unlimited clicks every 400 ms, so
    // every 500 ms sampler interval sees bridged traffic while the
    // federation is healthy.
    let (h1, rt1) = runtime_node(&mut world, "h1", 0, &[hub, pico]);
    let mouse_node = world.add_node("mouse");
    world.attach(mouse_node, pico).unwrap();
    world.add_process(
        mouse_node,
        Box::new(HidpMouse::new(MouseConfig {
            name: "E10 Mouse".to_owned(),
            click_interval: Some(SimDuration::from_millis(400)),
            motion_interval: None,
            click_limit: 0,
        })),
    );
    world.add_process(
        h1,
        Box::new(BluetoothMapper::with_defaults(rt1, UsdlLibrary::bundled())),
    );

    // h2 (rt1): the UPnP half. The mapper's ProcId is kept so the
    // silence fault can remove it mid-run.
    let (h2, rt2) = runtime_node(&mut world, "h2", 1, &[hub]);
    let light_node = world.add_node("light");
    world.attach(light_node, hub).unwrap();
    world.add_process(
        light_node,
        Box::new(UpnpDevice::new(
            Box::new(LightLogic::new("E10 Light", "uuid:e10-l")),
            5000,
        )),
    );
    let upnp_mapper = world.add_process(
        h2,
        Box::new(UpnpMapper::with_defaults(rt2, UsdlLibrary::bundled())),
    );

    world.add_process(
        h1,
        Box::new(Wirer::new(
            rt1,
            vec![WireRule::new(
                "E10 Mouse",
                "clicks",
                "E10 Light",
                "switch-on",
            )],
        )),
    );

    // The saturation fault: a flood pair on the hub, armed at build
    // time but firing its first datagram at the fault instant. A
    // 1000-byte datagram occupies the 10 Mbps half-duplex medium for
    // ~830 µs plus backoff; an 800 µs period keeps offered load just
    // past line rate, so the backlog (and with it every bridged
    // click's queueing delay) grows for the rest of the run.
    let fault_at = SimTime::from_secs(30);
    let flood_dst = world.add_node("flood-dst");
    world.attach(flood_dst, hub).unwrap();
    world.add_process(flood_dst, Box::new(FloodSink));
    let flood_src = world.add_node("flood-src");
    world.attach(flood_src, hub).unwrap();
    world.add_process(
        flood_src,
        Box::new(Flooder {
            target: Addr::new(flood_dst, FLOOD_PORT),
            start_after: SimDuration::from_secs(30),
            period: SimDuration::from_micros(800),
            size: 1000,
        }),
    );

    // Availability: the UPnP bridge must translate traffic in (almost)
    // every interval — budget 10% silent intervals, firing at 5x burn.
    // Latency: at most 1% of bridged deliveries over 20 ms end to end;
    // on the saturated hub every delivery violates, pinning the burn
    // rate at 100x budget.
    world.enable_telemetry(e10_objectives());
    (world, upnp_mapper, fault_at)
}

/// Runs the telemetry-plane experiment: the `e10_world` federation,
/// hit with two concurrent faults at t = 30 s:
///
/// - the UPnP mapper is removed (the bridge goes silent mid-run), and
/// - a flooder saturates the shared Ethernet hub, pushing every
///   bridged click past the latency SLO's 20 ms threshold.
///
/// The run proves the alerts fire in the configured burn-rate windows
/// and the doctor localizes both faults: the silenced bridge shows up
/// as `silent` with a firing availability SLO, and the saturated
/// segment is the top offender by burn rate.
pub fn e10_telemetry_faults() -> TelemetryFaultResults {
    let (mut world, upnp_mapper, fault_at) = e10_world();

    // Healthy half, fault injection, degraded half.
    world.run_until(fault_at);
    world
        .remove_process(upnp_mapper)
        .expect("upnp mapper alive at fault time");
    world.run_until(SimTime::from_secs(60));

    let report = world.doctor().expect("telemetry enabled");
    let doctor_json = report.to_json().document();
    let open_metrics = simnet::open_metrics(&world.trace().metrics().snapshot());
    let engine = world.slo_engine().expect("telemetry enabled");
    let transitions = engine.transitions().to_vec();
    let first_firing = |name: &str| {
        transitions
            .iter()
            .find(|t| t.objective == name && t.to == AlertState::Firing)
            .map(|t| t.at)
    };

    TelemetryFaultResults {
        liveness_firing_at: first_firing("upnp-availability"),
        latency_firing_at: first_firing("hub-latency"),
        samples: world.telemetry().expect("telemetry enabled").samples(),
        report,
        doctor_json,
        open_metrics,
        transitions,
        fault_at,
    }
}

/// The telemetry plane both overhead gates run with: a 250 ms sampler
/// and no objectives.
fn overhead_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        sampler: SamplerConfig {
            interval: SimDuration::from_millis(250),
            window: 64,
        },
        objectives: vec![],
        liveness_timeout: SimDuration::from_secs(5),
    }
}

/// The virtual window and slice count the overhead gates time: 200 s
/// in 800 slices of 250 ms, one sampler tick each. 800 pairs put the
/// median within about half a percent on a shared 2-core VM (an A/A
/// run of two identical worlds reads 0.997–1.005).
pub const OVERHEAD_WINDOW: (SimDuration, usize) = (SimDuration::from_secs(200), 800);

/// The wall-clock overhead of one observability plane: `off` and `on`
/// are the same seeded world, `on` with the plane enabled, both already
/// run to the start of the window. The window is cut into `slices`
/// equal virtual slices (at least 2), and the two worlds advance
/// through them in lockstep, timed slice by slice, so a load spike on
/// a shared host lands on both sides of a pair instead of on one whole
/// pass. Which side runs first in a pair is drawn from a seeded coin:
/// the side that runs second finds the caches cold, and a strict
/// alternation would tie that penalty to the fixture's periodic load
/// (at 250 ms slices, every whole-second burst falls on even slices).
/// The result is the median of the per-pair `on / off` ratios.
fn paired_overhead_ratio(
    off: &mut World,
    on: &mut World,
    measure: SimDuration,
    slices: usize,
) -> f64 {
    let slices = slices.max(2);
    let from = off.now();
    let timed = |world: &mut World, until: SimTime| {
        let t0 = std::time::Instant::now();
        world.run_until(until);
        t0.elapsed().as_secs_f64().max(1e-9)
    };
    let mut coin = simnet::SimRng::seed_from_u64(0x0DE5);
    let mut ratios: Vec<f64> = (1..=slices as u64)
        .map(|i| {
            let until = from + SimDuration::from_nanos(measure.as_nanos() * i / slices as u64);
            let (off_secs, on_secs) = if coin.gen_bool(0.5) {
                let off_secs = timed(off, until);
                (off_secs, timed(on, until))
            } else {
                let on_secs = timed(on, until);
                (timed(off, until), on_secs)
            };
            on_secs / off_secs
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = slices / 2;
    if slices.is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    }
}

/// Measures the sampler's overhead on the E9 federation: the same
/// seeded world over the same virtual window with telemetry off and on
/// (250 ms sampler, no objectives), as a `paired_overhead_ratio` over
/// `slices` slices. Used by `bench perf-sched --check` to hold the
/// telemetry plane under its overhead ceiling at n = 1000.
pub fn e10_sampler_overhead(n: usize, measure: SimDuration, slices: usize) -> f64 {
    let setup = SimTime::from_secs(E9_SETUP);
    let mut off = e9_world(n);
    let mut on = e9_world(n);
    on.enable_telemetry(overhead_telemetry());
    off.run_until(setup);
    on.run_until(setup);
    paired_overhead_ratio(&mut off, &mut on, measure, slices)
}

/// The E10/E13 telemetry configuration: 500 ms sampler, availability
/// SLO on the UPnP bridge, latency SLO on the shared hub.
fn e10_objectives() -> TelemetryConfig {
    TelemetryConfig {
        sampler: SamplerConfig {
            interval: SimDuration::from_millis(500),
            window: 64,
        },
        objectives: vec![
            Objective {
                name: "upnp-availability".to_owned(),
                subject: "bridge:upnp".to_owned(),
                kind: SloKind::Liveness {
                    counter: MetricId::new("bridge.upnp.traffic"),
                    budget_ppm: 100_000,
                },
                warning: BurnRateRule {
                    long_intervals: 6,
                    short_intervals: 2,
                    factor_milli: 2_500,
                },
                firing: BurnRateRule {
                    long_intervals: 6,
                    short_intervals: 2,
                    factor_milli: 5_000,
                },
            },
            Objective {
                name: "hub-latency".to_owned(),
                subject: "seg0:ethernet-10mbps-hub".to_owned(),
                kind: SloKind::LatencyAbove {
                    histogram: MetricId::new("umiddle.path_latency"),
                    threshold_ns: 20_000_000,
                    budget_ppm: 10_000,
                },
                warning: BurnRateRule {
                    long_intervals: 8,
                    short_intervals: 2,
                    factor_milli: 1_000,
                },
                firing: BurnRateRule {
                    long_intervals: 8,
                    short_intervals: 2,
                    factor_milli: 5_000,
                },
            },
        ],
        liveness_timeout: SimDuration::from_secs(5),
    }
}

// =====================================================================
// E13 — latency attribution: time decomposition + differential doctor
// =====================================================================

/// The latency-SLO threshold the E13 exemplar is resolved against
/// (matches the `hub-latency` objective in [`e10_objectives`]).
const E13_LATENCY_THRESHOLD_NS: u64 = 20_000_000;

/// Results of the attribution-plane experiment.
#[derive(Debug, Clone)]
pub struct AttributionResults {
    /// Attribution snapshot taken at the fault instant, before the
    /// faults land — the healthy baseline.
    pub before: AttributionReport,
    /// Attribution snapshot at the end of the degraded half.
    pub after: AttributionReport,
    /// Deterministic JSON of `before` — the shape checked in as the
    /// perf doctor's baseline artifact.
    pub before_json: String,
    /// Deterministic JSON of `after` — the CI byte-diff artifact.
    pub attrib_json: String,
    /// The differential doctor's ranked verdict, `before` → `after`:
    /// what regressed, where, by how much.
    pub diff: simnet::export::AttributionDiff,
    /// Deterministic JSON of `diff`.
    pub diff_json: String,
    /// Human-readable diff rendering (what a failed CI floor prints).
    pub diff_text: String,
    /// Exemplar corr the path-latency histogram captured for the first
    /// observation past the 20 ms SLO threshold.
    pub exemplar_corr: u64,
    /// Spans of the exemplar's journey found inside the first captured
    /// incident bundle.
    pub exemplar_journey: Vec<SpanRecord>,
    /// Critical-path coverage of the exemplar's bridged click journey,
    /// as the bundle recorded it.
    pub journey_coverage: f64,
    /// Incident bundles the trigger plane captured (E11's evidence).
    pub bundles: Vec<IncidentBundle>,
    /// The doctor's final report, offenders annotated with dominant
    /// time components and exemplar corrs.
    pub report: HealthReport,
}

/// Runs the attribution experiment: the `e10_world` fault pair with
/// the continuous profiler and the flight recorder both on. The
/// attribution fold rides the 500 ms telemetry sampler; one snapshot is
/// cut at the fault instant and one at the end, and the differential
/// doctor diffs them.
///
/// The same run is E11, the incident experiment: its trigger plane
/// snapshots the incident bundles, and its first bundle and final
/// doctor report are E11's artifacts.
///
/// The run proves the plane localizes the regression end to end:
///
/// 1. **Time decomposition** — the post-fault snapshot pins the
///    saturated hub's damage as *queue-wait* time on the runtime
///    component, dwarfing every self-time delta.
/// 2. **Exemplar linkage** — the `umiddle.path_latency` histogram's
///    first-over-20 ms exemplar corr resolves to a journey inside the
///    incident bundle the trigger plane captured when the SLO fired,
///    including the `queue.wait` span that explains the latency.
pub fn e13_attribution() -> AttributionResults {
    let (mut world, upnp_mapper, fault_at) = e10_world();
    world.enable_flight_recorder();
    world.enable_attribution();

    // Healthy half → baseline snapshot → fault injection → degraded
    // half → regression snapshot.
    world.run_until(fault_at);
    let before = world.attribution_report().expect("attribution enabled");
    world
        .remove_process(upnp_mapper)
        .expect("upnp mapper alive at fault time");
    world.run_until(SimTime::from_secs(60));
    let after = world.attribution_report().expect("attribution enabled");

    let diff = diff_attribution(&before, &after);

    let exemplar_corr = world
        .trace()
        .metrics()
        .histogram("umiddle.path_latency")
        .and_then(|h| h.exemplar_above_ns(E13_LATENCY_THRESHOLD_NS))
        .unwrap_or(0);
    let bundles = world.incidents().to_vec();
    let exemplar_journey: Vec<SpanRecord> = bundles
        .first()
        .map(|b| {
            b.spans
                .iter()
                .filter(|s| s.corr == exemplar_corr)
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    let journey_coverage =
        CriticalPath::analyze(&exemplar_journey, exemplar_corr).map_or(0.0, |cp| cp.coverage());

    let report = world.doctor().expect("telemetry enabled");

    AttributionResults {
        before_json: before.to_json().document(),
        attrib_json: after.to_json().document(),
        diff_json: diff.to_json().document(),
        diff_text: diff.to_text(8),
        before,
        after,
        diff,
        exemplar_corr,
        exemplar_journey,
        journey_coverage,
        bundles,
        report,
    }
}

/// Measures the attribution plane's overhead on the E9 federation, the
/// fixture [`e10_sampler_overhead`] uses: every bridge hop begins and
/// closes spans there, so the fold has real work. Both sides run the
/// 250 ms telemetry sampler and only the measured side folds, as a
/// `paired_overhead_ratio` over `slices` slices. `bench perf-sched
/// --check` holds this under its 3% budget at n = 1000.
///
/// # Panics
///
/// If the measured window folds no span: the ratio would time an empty
/// fold.
pub fn e13_attrib_overhead(n: usize, measure: SimDuration, slices: usize) -> f64 {
    let setup = SimTime::from_secs(E9_SETUP);
    let mut off = e9_world(n);
    let mut on = e9_world(n);
    off.enable_telemetry(overhead_telemetry());
    on.enable_telemetry(overhead_telemetry());
    on.enable_attribution();
    off.run_until(setup);
    on.run_until(setup);
    let folded = |world: &mut World| world.attribution_report().map_or(0, |r| r.spans_folded);
    let before = folded(&mut on);
    let ratio = paired_overhead_ratio(&mut off, &mut on, measure, slices);
    assert!(
        folded(&mut on) > before,
        "the attribution gate folded no span in its measured window"
    );
    ratio
}

// =====================================================================
// E12 — delta-gossip directory federation (bytes, convergence, lookup)
// =====================================================================

/// One run of the E12 delta-gossip federation fixture.
#[derive(Debug, Clone)]
pub struct DeltaGossipRow {
    /// Runtimes in the federation.
    pub runtimes: usize,
    /// Registered translators per runtime.
    pub per_runtime: usize,
    /// Directory-plane bytes during bootstrap (everyone joining at once).
    pub bootstrap_bytes: u64,
    /// Directory-plane bytes over the steady-state window — the number
    /// `bench perf-dir --check` pins.
    pub steady_bytes: u64,
    /// Length of the steady-state window in virtual seconds.
    pub steady_secs: u64,
    /// Worst-case time (ms) for a churn *join* to reach every runtime.
    pub join_convergence_ms: u64,
    /// Worst-case time (ms) for a churn *leave* to reach every runtime.
    pub leave_convergence_ms: u64,
    /// Federation-wide `directory.deltas_applied`.
    pub deltas_applied: u64,
    /// Federation-wide `directory.antientropy_repairs`.
    pub antientropy_repairs: u64,
    /// Directory entries every runtime settled on at the end.
    pub final_entries: u64,
}

/// E12 timeline, in virtual seconds: everyone boots and registers, a
/// steady-state window follows, then one join/leave churn cycle.
const E12_BOOT_SECS: u64 = 20;
const E12_STEADY_SECS: u64 = 60;
/// The churn join fires here.
const E12_JOIN_AT: u64 = E12_BOOT_SECS + E12_STEADY_SECS + 1;
/// The churn leave fires here.
const E12_LEAVE_AT: u64 = E12_JOIN_AT + 14;
const E12_END_SECS: u64 = E12_LEAVE_AT + 15;

/// Registers one extra service at [`E12_JOIN_AT`] (join churn), then
/// unregisters it again at [`E12_LEAVE_AT`] (leave churn).
struct Churner {
    runtime: simnet::ProcId,
    client: Option<umiddle_core::RuntimeClient>,
    registered: Option<umiddle_core::TranslatorId>,
}

impl Process for Churner {
    fn name(&self) -> &str {
        "e12-churner"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.client = Some(umiddle_core::RuntimeClient::new(self.runtime));
        // on_start runs at t=0, so relative delays are absolute times.
        ctx.set_timer(SimDuration::from_secs(E12_JOIN_AT), 0);
        ctx.set_timer(SimDuration::from_secs(E12_LEAVE_AT), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        use umiddle_core::{RuntimeId, TranslatorId};
        let client = self.client.as_mut().expect("started");
        if token == 0 {
            let shape = Shape::builder()
                .digital("out", Direction::Output, "app/churn".parse().unwrap())
                .build()
                .unwrap();
            let me = ctx.me();
            let profile = umiddle_core::TranslatorProfile::builder(
                TranslatorId::new(RuntimeId(0), 0),
                "churn-joiner",
            )
            .shape(shape)
            .build();
            client.register(ctx, profile, me);
        } else if let Some(id) = self.registered.take() {
            client.unregister(ctx, id);
        }
    }
    fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: simnet::ProcId, msg: simnet::LocalMessage) {
        if let Ok(event) = msg.downcast::<umiddle_core::RuntimeEvent>() {
            if let umiddle_core::RuntimeEvent::Registered { translator, .. } = *event {
                self.registered = Some(translator);
            }
        }
    }
}

/// Builds the E12 federation: `runtimes` runtimes on one hub, each
/// registering `per_runtime` services at boot, and runtime 0's churner.
/// Returns the world (nothing has run yet) and every runtime's stats.
fn e12_world(
    runtimes: usize,
    per_runtime: usize,
) -> (World, Vec<Rc<RefCell<umiddle_core::RuntimeStats>>>) {
    use umiddle_core::{RuntimeConfig, RuntimeId};

    let (mut world, hub) = hub_world(1200 + runtimes as u64);
    let mut stats = Vec::new();
    for i in 0..runtimes {
        let cfg = RuntimeConfig::new(RuntimeId(i as u32));
        let (node, rt, st) =
            crate::fixtures::runtime_node_cfg(&mut world, &format!("h{i}"), cfg, &[hub]);
        stats.push(st);
        for j in 0..per_runtime {
            // Spread MIME types so the federation index has real fan-out.
            let mime = format!("app/t{}", (i * per_runtime + j) % 7);
            let shape = Shape::builder()
                .digital("out", Direction::Output, mime.parse().unwrap())
                .build()
                .unwrap();
            world.add_process(
                node,
                Box::new(NativeService::new(
                    &format!("svc-{i}-{j}"),
                    shape,
                    rt,
                    Box::new(behaviors::Recorder::new()),
                )),
            );
        }
        if i == 0 {
            world.add_process(
                node,
                Box::new(Churner {
                    runtime: rt,
                    client: None,
                    registered: None,
                }),
            );
        }
    }
    (world, stats)
}

/// Runs the E12 federation fixture (`e12_world`): a 60 s steady-state
/// window after boot, then one join/leave churn cycle. Directory-plane
/// bytes come from the `directory.bytes_gossiped` counter; convergence
/// comes from each runtime's `last_directory_change_ns` stat.
pub fn e12_delta_gossip(runtimes: usize, per_runtime: usize) -> DeltaGossipRow {
    let (mut world, stats) = e12_world(runtimes, per_runtime);

    let max_change = |stats: &[Rc<RefCell<umiddle_core::RuntimeStats>>]| -> u64 {
        stats
            .iter()
            .map(|s| s.borrow().last_directory_change_ns)
            .max()
            .unwrap_or(0)
    };

    world.run_until(SimTime::from_secs(E12_BOOT_SECS));
    let bootstrap_bytes = world.trace().counter("directory.bytes_gossiped");
    world.run_until(SimTime::from_secs(E12_BOOT_SECS + E12_STEADY_SECS));
    let steady_bytes = world.trace().counter("directory.bytes_gossiped") - bootstrap_bytes;

    // Read join convergence strictly before the leave timer fires, so
    // the leave's own directory change cannot pollute the measurement.
    world.run_until(SimTime::from_secs(E12_LEAVE_AT - 1));
    let join_convergence_ms =
        max_change(&stats).saturating_sub(E12_JOIN_AT * 1_000_000_000) / 1_000_000;
    world.run_until(SimTime::from_secs(E12_END_SECS));
    let leave_convergence_ms =
        max_change(&stats).saturating_sub(E12_LEAVE_AT * 1_000_000_000) / 1_000_000;

    let expected = (runtimes * per_runtime) as u64;
    for (i, st) in stats.iter().enumerate() {
        let entries = st.borrow().directory_entries;
        assert_eq!(
            entries, expected,
            "E12 runtime {i} did not converge: {entries} entries, expected {expected}",
        );
    }

    DeltaGossipRow {
        runtimes,
        per_runtime,
        bootstrap_bytes,
        steady_bytes,
        steady_secs: E12_STEADY_SECS,
        join_convergence_ms,
        leave_convergence_ms,
        deltas_applied: world.trace().counter("directory.deltas_applied"),
        antientropy_repairs: world.trace().counter("directory.antientropy_repairs"),
        final_entries: expected,
    }
}

/// The E12 federation-lookup microbenchmark row.
#[derive(Debug, Clone)]
pub struct DirLookupRow {
    /// Profiles in the table.
    pub profiles: usize,
    /// Digital ports per profile.
    pub ports_per_profile: usize,
    /// Total advertised ports (`profiles * ports_per_profile`).
    pub total_ports: usize,
    /// Distinct MIME types the ports spread over.
    pub distinct_mimes: usize,
    /// Wall time to build the table, with the first lookup that builds
    /// its port index (ms).
    pub build_ms: f64,
    /// Lookups measured.
    pub lookups: usize,
    /// Profiles returned, summed over the measured lookups (fixed by
    /// the fixture, not by the host).
    pub hits: usize,
    /// Mean lookup wall time (ns).
    pub avg_ns: u64,
    /// p99 lookup wall time (ns) — the number the CI budget gates.
    pub p99_ns: u64,
    /// Full-scan fallbacks the query mix triggered (must be 0: every
    /// port query answers from the index at any table size).
    pub scan_fallbacks: u64,
}

/// Builds a directory table with `profiles * ports_per_profile`
/// advertised ports (the ~1M-port scale point) and measures indexed
/// `lookup` latency over a concrete port-query mix, plus wildcard
/// queries to pin the scan-free fallback paths. The first lookup builds
/// the table's port index, so the build time includes it.
pub fn e12_lookup_scale(profiles: usize, ports_per_profile: usize) -> DirLookupRow {
    use umiddle_core::{DirectoryTable, MimeType, PortKind, Query, RuntimeId, TranslatorId};

    const DISTINCT_MIMES: usize = 512;

    // The measured mix: concrete (direction, MIME) port queries — the
    // federation hot path. Wildcards are exercised after, unmeasured,
    // to pin scan-free behavior without letting their O(results) cost
    // (they select everything) dominate the p99.
    let queries: Vec<Query> = (0..DISTINCT_MIMES)
        .map(|m| {
            Query::has_port(
                Direction::Output,
                PortKind::Digital(format!("app/t{m}").parse().unwrap()),
            )
        })
        .collect();

    let build_t0 = std::time::Instant::now();
    let mut table = DirectoryTable::new();
    for p in 0..profiles {
        let mut shape = Shape::builder();
        for k in 0..ports_per_profile {
            let mime: MimeType = format!("app/t{}", (p * ports_per_profile + k) % DISTINCT_MIMES)
                .parse()
                .unwrap();
            let dir = if k % 2 == 0 {
                Direction::Output
            } else {
                Direction::Input
            };
            shape = shape.digital(&format!("p{k}"), dir, mime);
        }
        let profile = umiddle_core::TranslatorProfile::builder(
            TranslatorId::new(RuntimeId((p / 10_000) as u32), (p % 10_000) as u32),
            format!("svc-{p}"),
        )
        .shape(shape.build().unwrap())
        .build();
        let home = Addr::new(simnet::NodeId::from_index(p / 10_000), 47_001);
        table.upsert(profile, home, SimTime::MAX, false);
    }
    std::hint::black_box(table.lookup(&queries[0])); // builds the index
    let build_ms = build_t0.elapsed().as_secs_f64() * 1e3;

    for q in queries.iter().take(32) {
        std::hint::black_box(table.lookup(q)); // warm-up
    }
    let lookups = 2_000usize;
    let mut samples_ns: Vec<u64> = Vec::with_capacity(lookups);
    let mut total_hits = 0usize;
    for i in 0..lookups {
        let q = &queries[i % queries.len()];
        let t0 = std::time::Instant::now();
        let hits = std::hint::black_box(table.lookup(q));
        samples_ns.push(t0.elapsed().as_nanos() as u64);
        total_hits += hits.len();
    }
    assert!(total_hits > 0, "lookup fixture selected nothing");
    samples_ns.sort_unstable();
    let avg_ns = samples_ns.iter().sum::<u64>() / lookups as u64;
    let p99_ns = samples_ns[(lookups * 99) / 100 - 1];

    // Wildcard paths: pattern MIME and the double wildcard both answer
    // from indexes (the union of the postings), never the full scan.
    let pattern = Query::has_port(
        Direction::Output,
        PortKind::Digital("app/*".parse().unwrap()),
    );
    let any = Query::has_port(Direction::Output, PortKind::Digital(MimeType::any()));
    assert!(!table.lookup(&pattern).is_empty());
    assert!(!table.lookup(&any).is_empty());

    DirLookupRow {
        profiles,
        ports_per_profile,
        total_ports: profiles * ports_per_profile,
        distinct_mimes: DISTINCT_MIMES,
        build_ms,
        lookups,
        hits: total_hits,
        avg_ns,
        p99_ns,
        scan_fallbacks: table.scan_fallbacks(),
    }
}

/// The E12 replica-write split: the wall cost of one directory delta
/// at a receiving replica, its decode apart from its apply.
#[derive(Debug, Clone)]
pub struct ReplicaApplyRow {
    /// Replicas (one per runtime).
    pub runtimes: usize,
    /// Services each runtime registers at bootstrap.
    pub per_runtime: usize,
    /// Single-op deltas in the churn stream.
    pub deltas: usize,
    /// Timed decode + apply pairs: every delta at every receiver.
    pub applies: usize,
    /// p10, median and p90 wall ns of one `DirectoryReplica::apply_delta`
    /// at a replica that has served a lookup, so its port index is built
    /// and every write maintains it.
    pub apply_ns: [u64; 3],
    /// The same at a replica that has served no lookup, so it keeps no
    /// port index.
    pub unindexed_apply_ns: [u64; 3],
    /// p10, median and p90 wall ns of one `WireMessage::decode` of the
    /// delta's frame.
    pub decode_ns: [u64; 3],
}

/// Builds `runtimes` replicas holding the E12 churn federation
/// (`per_runtime` two-port services per runtime over 7 MIME types),
/// then replays a seeded stream of `deltas` single-op Add/Remove deltas
/// from the churners on every tenth runtime. Each delta's frame is
/// decoded and applied at every other replica in turn, as the multicast
/// reaches every host, so one replica's cache lines are cold again by
/// its next delta. Each decode and each apply is timed on its own.
/// Even-numbered replicas serve one lookup before the churn, which
/// builds their port index; the odd ones serve none, so their applies
/// time a replica without postings.
pub fn e12_replica_apply(runtimes: usize, per_runtime: usize, deltas: usize) -> ReplicaApplyRow {
    use umiddle_core::{
        DeltaOp, DeltaOutcome, DirectoryReplica, MimeType, PortKind, Query, RuntimeId,
        TranslatorId, TranslatorProfile, WireMessage,
    };

    const CHURNER_STRIDE: usize = 10;
    const SLOTS: usize = 4;
    let mime = |k: usize| -> MimeType { format!("app/t{}", k % 7).parse().unwrap() };
    let home = |i: usize| Addr::new(simnet::NodeId::from_index(i), 47_001);
    let profile = |i: usize, local: u32, name: String, shape: Shape| {
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(i as u32), local), name)
            .shape(shape)
            .build()
    };

    let mut replicas: Vec<DirectoryReplica> = (0..runtimes)
        .map(|i| DirectoryReplica::new(RuntimeId(i as u32), 256))
        .collect();
    let mut events = Vec::new();
    for i in 0..runtimes {
        let mut ops = Vec::with_capacity(per_runtime);
        for j in 0..per_runtime {
            let m = mime(i * per_runtime + j);
            let shape = Shape::builder()
                .digital("in", Direction::Input, m.clone())
                .digital("out", Direction::Output, m)
                .build()
                .unwrap();
            let p = profile(i, j as u32, format!("svc-{i}-{j}"), shape);
            replicas[i].record_local_add(p.clone(), home(i));
            ops.push(DeltaOp::Add(p));
        }
        for (r, replica) in replicas.iter_mut().enumerate() {
            if r != i {
                replica.apply_delta(
                    RuntimeId(i as u32),
                    home(i),
                    1,
                    &ops,
                    SimTime::ZERO,
                    &mut events,
                );
            }
        }
    }

    let indexed = |r: usize| r.is_multiple_of(2);
    let probe = Query::has_port(Direction::Input, PortKind::Digital(mime(0)));
    for (r, replica) in replicas.iter().enumerate() {
        if indexed(r) {
            assert!(!replica.table().lookup(&probe).is_empty());
        }
    }

    let churners: Vec<usize> = (0..runtimes)
        .filter(|i| i % CHURNER_STRIDE == CHURNER_STRIDE / 2)
        .collect();
    let mut live = vec![[None::<TranslatorId>; SLOTS]; churners.len()];
    let mut next_local = vec![per_runtime as u32; churners.len()];
    let mut rng = simnet::SimRng::seed_from_u64(12);
    let mut apply_ns = Vec::with_capacity(deltas * runtimes / 2);
    let mut unindexed_apply_ns = Vec::with_capacity(deltas * runtimes / 2);
    let mut decode_ns = Vec::with_capacity(deltas * (runtimes - 1));
    for _ in 0..deltas {
        let c = rng.gen_range(0..churners.len());
        let k = rng.gen_range(0..SLOTS);
        let origin = churners[c];
        let op = match live[c][k].take() {
            Some(id) => {
                replicas[origin].record_local_remove(id).expect("live");
                DeltaOp::Remove(id)
            }
            None => {
                let shape = Shape::builder()
                    .digital("in", Direction::Input, mime(origin + k))
                    .build()
                    .unwrap();
                let p = profile(origin, next_local[c], format!("churn-{origin}-{k}"), shape);
                next_local[c] += 1;
                live[c][k] = Some(p.id());
                replicas[origin].record_local_add(p.clone(), home(origin));
                DeltaOp::Add(p)
            }
        };
        let frame = WireMessage::Delta {
            origin: RuntimeId(origin as u32),
            home: home(origin),
            first: replicas[origin].own_version(),
            ops: vec![op],
        }
        .encode();
        for (r, replica) in replicas.iter_mut().enumerate() {
            if r == origin {
                continue;
            }
            let t0 = std::time::Instant::now();
            let msg = std::hint::black_box(WireMessage::decode(&frame));
            let t1 = std::time::Instant::now();
            let Ok(WireMessage::Delta {
                origin,
                home,
                first,
                ops,
            }) = msg
            else {
                panic!("a delta frame decodes to a delta");
            };
            events.clear();
            let outcome =
                replica.apply_delta(origin, home, first, &ops, SimTime::ZERO, &mut events);
            let t2 = std::time::Instant::now();
            assert_eq!(outcome, DeltaOutcome::Applied(1));
            decode_ns.push((t1 - t0).as_nanos() as u64);
            let apply = if indexed(r) {
                &mut apply_ns
            } else {
                &mut unindexed_apply_ns
            };
            apply.push((t2 - t1).as_nanos() as u64);
        }
    }
    let quantiles = |mut v: Vec<u64>| -> [u64; 3] {
        v.sort_unstable();
        [v[v.len() / 10], v[v.len() / 2], v[v.len() * 9 / 10]]
    };
    ReplicaApplyRow {
        runtimes,
        per_runtime,
        deltas,
        applies: decode_ns.len(),
        apply_ns: quantiles(apply_ns),
        unindexed_apply_ns: quantiles(unindexed_apply_ns),
        decode_ns: quantiles(decode_ns),
    }
}

// =====================================================================
// Dispatch fingerprints — the kernel's handler order on four fixtures
// =====================================================================

/// One fixture's [`World::dispatch_fingerprint`] over a fixed virtual
/// span from t = 0.
#[derive(Debug, Clone)]
pub struct FingerprintRow {
    /// The fixture.
    pub fixture: &'static str,
    /// Virtual seconds run.
    pub virtual_secs: u64,
    /// The dispatch fingerprint at the end of the span.
    pub fingerprint: u64,
    /// Handler invocations the fingerprint covers.
    pub handler_calls: u64,
}

/// Runs four fixtures for fixed virtual spans and returns each one's
/// dispatch fingerprint: the E9 federation at 1000 devices through its
/// setup window and 60 s of traffic, the E12 federation (100 runtimes x
/// 10 services) through its steady state and one churn cycle, the
/// Figure 11 RMI-MB path through its warm-up and 2 s, and the E10 world
/// (E8's two-runtime topology) through 40 s, past its hub flood at
/// 30 s. E10 is the one whose multicast frames reach a single member:
/// each runtime's directory multicast has one other runtime to hear it.
/// A kernel change that keeps every handler call in order keeps all
/// four; one that moves any of them changed the simulated model.
pub fn dispatch_fingerprints() -> Vec<FingerprintRow> {
    let run = |fixture, mut world: World, virtual_secs| {
        world.run_until(SimTime::from_secs(virtual_secs));
        FingerprintRow {
            fixture,
            virtual_secs,
            fingerprint: world.dispatch_fingerprint(),
            handler_calls: world.handler_calls(),
        }
    };
    vec![
        run("e9_federation_1000", e9_world(1000), E9_SETUP + 60),
        run("e12_churn_100x10", e12_world(100, 10).0, E12_END_SECS),
        run("e3_rmi_mb", rmi_mb_world(34).0, 32),
        run("e10_two_runtimes", e10_world().0, 40),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E9 federation fixture must actually exercise every bridge:
    /// each platform's translation histogram has to see traffic, and
    /// the scheduler has to dispatch events through the whole window.
    /// Guards the fixture against silent rot (an unmapped population
    /// would still "run" and report plausible aggregate numbers).
    #[test]
    fn e9_world_bridges_all_six_platforms() {
        let mut world = e9_world(12);
        world.run_until(SimTime::from_secs(120));
        let snapshot = world.trace().metrics().snapshot();
        for platform in [
            "bluetooth",
            "mediabroker",
            "motes",
            "rmi",
            "upnp",
            "webservices",
        ] {
            let name = format!("bridge.{platform}.translation");
            let count = snapshot.histograms.get(&name).map_or(0, |h| h.count());
            assert!(count > 0, "no translated traffic on {platform}");
        }
        assert!(world.events_processed() > 0);
    }

    /// The telemetry fault-injection run must detect and localize both
    /// injected faults: the silenced UPnP bridge fires its availability
    /// SLO within the burn-rate window and shows up silent in the
    /// doctor, and the saturated hub is the doctor's top offender.
    #[test]
    fn e10_alerts_fire_and_doctor_localizes_faults() {
        let r = e10_telemetry_faults();

        // Both SLOs fire, and only after the fault instant. The
        // availability SLO needs 3 silent 500 ms intervals in its
        // short+long windows, so it must fire within ~4 s of the
        // mapper's removal; the latency SLO needs the backlog to grow
        // past 20 ms, then 2 violating intervals.
        let fired = r.liveness_firing_at.expect("availability SLO fired");
        assert!(fired > r.fault_at, "fired before the fault: {fired}");
        assert!(
            fired <= SimTime::from_nanos(r.fault_at.as_nanos() + 4_000_000_000),
            "availability SLO too slow: fault at {}, fired at {fired}",
            r.fault_at
        );
        let lat_fired = r.latency_firing_at.expect("latency SLO fired");
        assert!(lat_fired > r.fault_at, "latency fired early: {lat_fired}");

        // No transition may predate the fault: the healthy half of the
        // run must be alert-free (no startup flapping).
        assert!(
            r.transitions.iter().all(|t| t.at > r.fault_at),
            "spurious pre-fault transition: {:?}",
            r.transitions.first()
        );

        // The doctor localizes the silence: the UPnP bridge is marked
        // silent while the Bluetooth bridge (still translating mouse
        // clicks into rt0) stays live.
        let bridge = |p: &str| {
            r.report
                .bridges
                .iter()
                .find(|b| b.platform == p)
                .unwrap_or_else(|| panic!("{p} bridge in report"))
        };
        assert!(bridge("upnp").silent, "upnp not flagged silent");
        assert!(!bridge("bluetooth").silent, "bluetooth wrongly silent");

        // ... and the saturation: the hub is the top offender (its
        // SLO burns at 100x budget, above the availability SLO's 10x),
        // and its utilization trend is pinned near 1000 milli.
        let top = r.report.top_offenders.first().expect("offenders listed");
        assert_eq!(top.subject, "seg0:ethernet-10mbps-hub");
        let seg = r
            .report
            .segments
            .iter()
            .find(|s| s.label == "seg0:ethernet-10mbps-hub")
            .expect("hub segment in report");
        assert!(
            seg.utilization_milli >= 900,
            "hub not saturated: {} milli",
            seg.utilization_milli
        );

        // The exports are non-trivial and mention both faults.
        assert!(r.doctor_json.contains("\"firing\""));
        assert!(r.open_metrics.ends_with("# EOF\n"));
        assert!(r.samples >= 110, "sampler starved: {} samples", r.samples);
    }

    /// Every bridge must leave a *balanced* span record: one closed hop
    /// span per translated message. Since every hop bumps the
    /// platform's traffic counter exactly once, `ingress + egress ==
    /// traffic` closes the audit — a bridge that records fewer egress
    /// spans than messages fails the equality. Platforms the
    /// fixture drives both ways (fan-in *and* fan-out) must show hops
    /// in both directions.
    #[test]
    fn e9_world_bridge_hops_are_balanced() {
        let mut world = e9_world(12);
        world.run_until(SimTime::from_secs(120));
        let snapshot = world.trace().metrics().snapshot();
        let assert = simnet::TraceAssert::new(world.trace());
        for (platform, two_way) in [
            ("bluetooth", false),
            ("mediabroker", false),
            ("motes", false),
            ("rmi", true),
            ("upnp", false),
            ("webservices", true),
        ] {
            let (ingress, egress) = assert.balanced(platform);
            let traffic = snapshot
                .counters
                .get(&format!("bridge.{platform}.traffic"))
                .copied()
                .unwrap_or(0);
            assert_eq!(
                ingress + egress,
                traffic,
                "{platform}: hop spans do not match translated traffic"
            );
            if two_way {
                assert!(ingress > 0, "no {platform} ingress hop spans");
                assert!(egress > 0, "no {platform} egress hop spans");
            }
        }
    }

    /// The attribution plane must localize the E10 fault pair end to
    /// end: the differential doctor's top regression is queue-wait on
    /// the runtime component (the saturated hub's backlog), the
    /// latency exemplar resolves to a journey inside the captured
    /// incident bundle — including the `queue.wait` span that explains
    /// the latency — and the doctor's offenders carry attribution
    /// annotations. The same run is E11: its bundles and final doctor
    /// report are the incident evidence.
    #[test]
    fn e13_attribution_localizes_queue_wait_regression() {
        let r = e13_attribution();

        // Both halves folded real spans, losslessly.
        assert!(r.before.spans_folded > 0, "baseline folded nothing");
        assert!(
            r.after.spans_folded > r.before.spans_folded,
            "degraded half folded nothing new"
        );
        assert!(
            r.before.components.contains_key("bridge:upnp"),
            "healthy half missing bridge components: {:?}",
            r.before.components.keys().collect::<Vec<_>>()
        );

        // The differential doctor pins the regression: queue-wait on
        // the runtime component dwarfs every other delta.
        let top = r.diff.top_regression().expect("a ranked regression");
        assert_eq!(
            (top.component.as_str(), top.kind),
            ("process:umiddle-runtime", "queue"),
            "regression not localized to runtime queue-wait:\n{}",
            r.diff_text
        );
        assert!(r.diff_text.contains("process:umiddle-runtime/queue"));

        // The exemplar corr captured at the first over-threshold
        // observation resolves to a journey inside the incident bundle
        // the trigger plane cut when the SLO fired.
        assert_ne!(r.exemplar_corr, 0, "no exemplar past the 20 ms threshold");
        assert!(!r.bundles.is_empty(), "no incident bundle captured");
        assert!(
            !r.exemplar_journey.is_empty(),
            "exemplar corr {:#x} not found in the incident bundle",
            r.exemplar_corr
        );
        assert!(
            r.exemplar_journey.iter().any(|s| s.stage == "queue.wait"),
            "exemplar journey has no queue.wait span: {:?}",
            r.exemplar_journey
                .iter()
                .map(|s| s.stage)
                .collect::<Vec<_>>()
        );

        // The doctor annotates its offenders with the dominant time
        // component; the latency SLO's offender carries the exemplar.
        let slo = r
            .report
            .top_offenders
            .iter()
            .find(|o| o.name == "hub-latency")
            .expect("hub-latency offender listed");
        assert_eq!(slo.dominant, "process:umiddle-runtime/queue");
        assert_eq!(slo.exemplar_corr, r.exemplar_corr);

        // Snapshots and diff export deterministically and round-trip.
        let parsed =
            AttributionReport::from_json(&r.before_json).expect("baseline JSON round-trips");
        assert_eq!(parsed.to_json().document(), r.before_json);
        assert!(r.attrib_json.contains("\"components\""));
        assert!(r.diff_json.contains("\"rows\""));

        // E11: the trigger plane snapshotted the incident, the doctor
        // localizes the saturated hub, and the bundled click journey is
        // attributed end to end. (The first bundle may be the
        // offender-rank change that precedes the firing transition —
        // both stem from the same fault pair.)
        assert!(
            r.bundles
                .iter()
                .any(|b| b.kind == simnet::TriggerKind::SloFiring),
            "no slo-firing bundle: {:?}",
            r.bundles.iter().map(|b| b.kind).collect::<Vec<_>>()
        );
        assert!(r.bundles[0].to_json().document().contains("\"trigger\""));
        assert_eq!(
            r.report.top_offenders.first().map(|o| o.subject.as_str()),
            Some("seg0:ethernet-10mbps-hub"),
            "doctor did not localize the saturated hub"
        );
        assert!(r.report.to_json().document().contains("\"firing\""));
        assert!(
            r.journey_coverage >= 0.95,
            "bridged click journey under-attributed: {:.3}",
            r.journey_coverage
        );
    }

    #[test]
    fn e12_delta_gossip_converges() {
        // A small federation end to end: it converges (the fixture
        // asserts per-runtime entry counts internally, churn included),
        // keeps gossiping digests in the steady state, and replicates
        // through applied deltas.
        let row = e12_delta_gossip(6, 2);
        assert!(row.steady_bytes > 0);
        assert!(row.deltas_applied > 0);
    }

    #[test]
    fn e12_lookup_scale_stays_on_the_index() {
        let lk = e12_lookup_scale(100, 4);
        assert_eq!(lk.total_ports, 400);
        assert_eq!(lk.scan_fallbacks, 0, "a port query fell back to a scan");
        // Lookup `i` asks for output MIME `i % distinct_mimes`; the
        // fixture gives port `k` of profile `p` MIME
        // `(p * ports_per_profile + k) % distinct_mimes` and makes the
        // even-numbered ports outputs.
        let implied: usize = (0..lk.lookups)
            .map(|i| {
                let mime = i % lk.distinct_mimes;
                (0..lk.total_ports)
                    .filter(|port| {
                        port % lk.distinct_mimes == mime
                            && (port % lk.ports_per_profile).is_multiple_of(2)
                    })
                    .count()
            })
            .sum();
        assert_eq!(lk.hits, implied, "the index returned the wrong postings");
    }

    #[test]
    fn e12_replica_apply_times_every_delta_at_every_receiver() {
        // The harness itself asserts that each frame decodes to a delta
        // and applies as `DeltaOutcome::Applied(1)`.
        let ra = e12_replica_apply(10, 3, 50);
        assert_eq!(ra.applies, 50 * (10 - 1));
        for apply in [ra.apply_ns, ra.unindexed_apply_ns] {
            assert!(apply[0] <= apply[1] && apply[1] <= apply[2]);
        }
        assert!(ra.decode_ns[0] <= ra.decode_ns[1] && ra.decode_ns[1] <= ra.decode_ns[2]);
    }
}
