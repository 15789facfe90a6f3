//! The three workloads: how each world is built from a seed, when its
//! warm-up ends, what counts as an operation, and the digest of
//! simulated outputs that checks it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simnet::{
    Addr, Ctx, LocalMessage, ProcId, Process, SegmentConfig, SimDuration, SimRng, SimTime, World,
};
use umiddle_bridges::{
    BluetoothMapper, MediaBrokerMapper, MotesMapper, NativeService, RmiMapper, UpnpMapper, WsMapper,
};
use umiddle_core::{
    Direction, DirectoryEvent, MimeType, PortKind, PortRef, QosPolicy, Query, RuntimeClient,
    RuntimeEvent, RuntimeId, RuntimeStats, Shape, TranslatorId, TranslatorProfile, UMessage,
};
use umiddle_usdl::UsdlLibrary;

use crate::fixtures::{
    bump, runtime_node, CountingSink, FanRule, FanWirer, Idle, PacedProducer, Tally,
};
use crate::ledger::{Tracer, APP, BRIDGE, NATIVE, PLATFORMS};

/// Index of each platform in [`PLATFORMS`], [`BRIDGE`] and [`NATIVE`].
const UPNP: usize = 0;
const BLUETOOTH: usize = 1;
const MOTES: usize = 2;
const RMI: usize = 3;
const MEDIABROKER: usize = 4;
const WEBSERVICES: usize = 5;

/// Registry counters that count failed operations.
pub const FAILURE_COUNTERS: [&str; 4] = [
    "umiddle.wire_decode_errors",
    "umiddle.path_unknown_dst",
    "umiddle.path_unknown_port",
    "umiddle.remote_send_failed",
];

/// Figure 11's RMI-MB band: the paper's 2.9 Mbps, ±15%.
const GOODPUT_BAND_MBPS: (f64, f64) = (2.465, 3.335);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E9 six-bridge federation at N = 1000 devices.
    Federation,
    /// The Figure-11 RMI-MB path: MediaBroker channel into RMI.
    BridgedStream,
    /// The E12 directory federation under device churn.
    DirectoryChurn,
}

/// A built world plus the handles the driver reads it through.
pub struct Scenario {
    /// The simulated world.
    pub world: World,
    /// What the benchmark's own processes observed.
    pub tally: Rc<Tally>,
    /// Each runtime's stats handle.
    pub stats: Vec<Rc<RefCell<RuntimeStats>>>,
    /// Set to stop churn and lookups before the final digest.
    pub quiesce: Rc<Cell<bool>>,
    /// Directory entries every runtime must hold once quiesced.
    pub expected_entries: u64,
}

/// Cumulative operation and failure counts at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `bridge.{platform}.traffic`, in [`PLATFORMS`] order.
    pub traffic: [u64; 6],
    /// Messages delivered to counting sinks.
    pub delivered: u64,
    /// Acknowledged registrations.
    pub registered: u64,
    /// Acknowledged unregistrations.
    pub unregistered: u64,
    /// Lookups issued.
    pub lookups_sent: u64,
    /// Lookups answered.
    pub lookups_answered: u64,
    /// Query bindings made.
    pub bound: u64,
    /// `ConnectFailed` replies.
    pub connect_failed: u64,
    /// Sum of [`FAILURE_COUNTERS`].
    pub failure_counters: u64,
}

impl Counts {
    /// Growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            traffic: std::array::from_fn(|i| self.traffic[i] - earlier.traffic[i]),
            delivered: self.delivered - earlier.delivered,
            registered: self.registered - earlier.registered,
            unregistered: self.unregistered - earlier.unregistered,
            lookups_sent: self.lookups_sent - earlier.lookups_sent,
            lookups_answered: self.lookups_answered - earlier.lookups_answered,
            bound: self.bound - earlier.bound,
            connect_failed: self.connect_failed - earlier.connect_failed,
            failure_counters: self.failure_counters - earlier.failure_counters,
        }
    }
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::Federation,
        Workload::BridgedStream,
        Workload::DirectoryChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Federation => "federation",
            Workload::BridgedStream => "bridged_stream",
            Workload::DirectoryChurn => "directory_churn",
        }
    }

    /// Why the benchmark runs this workload (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Federation => {
                "E9 six-bridge federation at 1000 devices: small control hops on all six \
                 mappers; the kernel's busy-deferral path dominates, and only here do the \
                 XML mappers run"
            }
            Workload::BridgedStream => {
                "Figure 11 RMI-MB path: 1400-byte messages through runtime path forwarding, \
                 the JRMP/MB codecs, streams and payloads; XML and directory idle, few \
                 deferrals"
            }
            Workload::DirectoryChurn => {
                "E12 shape (100 runtimes x 10 services) under device churn: directory writes \
                 beside lookups and query rebinding; the runtime as control plane, not data \
                 path"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Virtual time at which warm-up (discovery, translator
    /// instantiation, directory bootstrap, wiring) is over.
    pub fn warmup(self) -> SimTime {
        match self {
            // Sized for the slowest mapper: ~167 UPnP lights at ~270 ms
            // of serialized instantiation each.
            Workload::Federation => SimTime::from_secs(90),
            Workload::BridgedStream => SimTime::from_secs(30),
            Workload::DirectoryChurn => SimTime::from_secs(CHURN_START_SECS + 5),
        }
    }

    /// Virtual length of one measured chunk; the run checks its host-time
    /// budget and probes the host's speed between chunks.
    pub fn chunk(self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// Virtual time run after the measured window, with churn and
    /// lookups stopped, so the directory settles before the digest.
    pub fn drain(self) -> SimDuration {
        match self {
            Workload::DirectoryChurn => SimDuration::from_secs(5),
            _ => SimDuration::ZERO,
        }
    }

    /// Builds the world for `seed`.
    pub fn build(self, seed: u64, tracer: &Tracer) -> Scenario {
        match self {
            Workload::Federation => federation(seed, tracer),
            Workload::BridgedStream => bridged_stream(seed, tracer),
            Workload::DirectoryChurn => directory_churn(seed, tracer),
        }
    }

    /// Operations completed in `c`: bridged hops, delivered messages,
    /// or acknowledged directory operations.
    pub fn ops(self, c: &Counts) -> u64 {
        match self {
            Workload::Federation => c.traffic.iter().sum(),
            Workload::BridgedStream => c.delivered,
            Workload::DirectoryChurn => {
                c.registered + c.unregistered + c.lookups_answered + c.bound
            }
        }
    }
}

/// Reads the cumulative counts of a scenario.
pub fn counts(sc: &Scenario) -> Counts {
    let trace = sc.world.trace();
    let t = &sc.tally;
    Counts {
        traffic: std::array::from_fn(|i| {
            trace.counter(&format!("bridge.{}.traffic", PLATFORMS[i]))
        }),
        delivered: t.delivered.get(),
        registered: t.registered.get(),
        unregistered: t.unregistered.get(),
        lookups_sent: t.lookups_sent.get(),
        lookups_answered: t.lookups_answered.get(),
        bound: t.bound.get(),
        connect_failed: t.connect_failed.get(),
        failure_counters: FAILURE_COUNTERS.iter().map(|c| trace.counter(c)).sum(),
    }
}

/// The simulated outputs of one run, and the checks they failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// `key=value` lines, compared between traced and untraced runs.
    pub lines: Vec<String>,
    /// Failed checks (empty when the run is correct).
    pub failures: Vec<String>,
}

/// Digests the measured window `window` (counts over it) of a scenario
/// that has been quiesced and drained, ending at `end`.
pub fn digest(w: Workload, sc: &Scenario, window: &Counts, end: SimTime) -> Digest {
    let mut lines = vec![format!("end_ns={}", end.as_nanos())];
    let mut failures = Vec::new();
    let total = counts(sc);
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    match w {
        Workload::Federation => {
            for (i, p) in PLATFORMS.iter().enumerate() {
                lines.push(format!("bridged.{p}={}", window.traffic[i]));
                check(window.traffic[i] > 0, format!("no bridged {p} traffic"));
            }
        }
        Workload::BridgedStream => {
            lines.push(format!("bridged.rmi={}", window.traffic[RMI]));
            lines.push(format!(
                "bridged.mediabroker={}",
                window.traffic[MEDIABROKER]
            ));
            lines.push(format!("delivered={}", window.delivered));
            check(window.traffic[RMI] > 0, "no bridged rmi traffic".to_owned());
            check(
                window.traffic[MEDIABROKER] > 0,
                "no bridged mediabroker traffic".to_owned(),
            );
        }
        Workload::DirectoryChurn => {
            lines.push(format!("registered={}", window.registered));
            lines.push(format!("unregistered={}", window.unregistered));
            lines.push(format!("lookups_answered={}", window.lookups_answered));
            lines.push(format!("bound={}", window.bound));
            check(window.registered > 0, "no churn registrations".to_owned());
            check(
                window.unregistered > 0,
                "no churn unregistrations".to_owned(),
            );
            check(
                window.lookups_answered > 0,
                "no lookups answered".to_owned(),
            );
            check(window.bound > 0, "no query rebinding".to_owned());
            check(
                total.lookups_answered == total.lookups_sent,
                format!(
                    "{} lookups unanswered",
                    total.lookups_sent - total.lookups_answered
                ),
            );
        }
    }
    let entries: Vec<u64> = sc
        .stats
        .iter()
        .map(|s| s.borrow().directory_entries)
        .collect();
    lines.push(format!("directory_entries={}", entries[0]));
    check(
        entries.iter().all(|&e| e == sc.expected_entries),
        format!(
            "directory entries differ between runtimes or from {}: min {} max {}",
            sc.expected_entries,
            entries.iter().min().expect("a runtime"),
            entries.iter().max().expect("a runtime"),
        ),
    );
    lines.push(format!("connect_failed={}", total.connect_failed));
    check(
        total.connect_failed == 0,
        format!("{} ConnectFailed", total.connect_failed),
    );
    lines.push(format!("failure_counters={}", total.failure_counters));
    check(
        total.failure_counters == 0,
        format!("failure counters at {}", total.failure_counters),
    );
    Digest { lines, failures }
}

/// Checks the RMI-MB goodput of a measured window against Figure 11.
pub fn goodput_check(w: Workload, window: &Counts, secs: f64, d: &mut Digest) {
    if w != Workload::BridgedStream {
        return;
    }
    // Each delivery is one acknowledged 1400-byte message.
    let mbps = window.delivered as f64 * 1400.0 * 8.0 / secs / 1e6;
    d.lines.push(format!("goodput_mbps={mbps:.4}"));
    if !(GOODPUT_BAND_MBPS.0..=GOODPUT_BAND_MBPS.1).contains(&mbps) {
        d.failures.push(format!(
            "RMI-MB goodput {mbps:.3} Mbps outside Figure 11's band {:?}",
            GOODPUT_BAND_MBPS
        ));
    }
}

fn mime(s: &str) -> MimeType {
    s.parse().expect("static mime")
}

fn one_port(port: &str, dir: Direction, m: &str) -> Shape {
    Shape::builder()
        .digital(port, dir, mime(m))
        .build()
        .expect("valid shape")
}

// ---------------------------------------------------------------------
// federation
// ---------------------------------------------------------------------

/// Devices in the federation, split near-evenly over six platforms.
const FEDERATION_DEVICES: usize = 1000;

/// The E9 federation: `FEDERATION_DEVICES` native devices over all six
/// bridges, each population producing steady traffic into native sinks
/// on the runtime host. Rates keep every mapper below saturation, so
/// the run is a steady state, not a backlog.
fn federation(seed: u64, tracer: &Tracer) -> Scenario {
    use platform_bluetooth::{HidpMouse, MouseConfig};
    use platform_motes::{BaseStation, Mote};
    use platform_rmi::{JavaValue, RmiObjectServer, RmiRegistry, REGISTRY_PORT};
    use platform_upnp::{LightLogic, UpnpDevice};
    use platform_webservices::WsServer;

    let n = FEDERATION_DEVICES;
    let mut world = World::new(seed);
    world.trace_mut().set_log_enabled(false);
    let tally = Rc::new(Tally::default());
    let group = |k: usize| n / 6 + usize::from(k < n % 6);

    let hub = world.add_segment(SegmentConfig::ethernet_100mbps_switch());
    let (h1, rt, stats) = runtime_node(&mut world, tracer, "h1", 0, &[hub]);

    // UPnP lights, toggled in fan-out by one native driver.
    for i in 0..group(UPNP) {
        let node = world.add_node(format!("light{i}"));
        world.attach(node, hub).expect("attach");
        let logic = LightLogic::new(&format!("E9 Light {i:04}"), &format!("uuid:e9l{i}"));
        tracer.add(
            &mut world,
            node,
            NATIVE[UPNP],
            Box::new(UpnpDevice::new(Box::new(logic), 5000)),
        );
    }
    tracer.add(
        &mut world,
        h1,
        BRIDGE[UPNP],
        Box::new(UpnpMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Bluetooth mice clicking forever, seven slaves per piconet.
    let mut pico = None;
    for i in 0..group(BLUETOOTH) {
        if i % 7 == 0 {
            let p = world.add_segment(SegmentConfig::bluetooth_piconet());
            world.attach(h1, p).expect("attach");
            pico = Some(p);
        }
        let node = world.add_node(format!("mouse{i}"));
        world
            .attach(node, pico.expect("piconet created"))
            .expect("attach");
        let mouse = HidpMouse::new(MouseConfig {
            name: format!("HIDP Mouse {i:04}"),
            click_interval: Some(SimDuration::from_secs(12)),
            motion_interval: None,
            click_limit: 0,
        });
        tracer.add(&mut world, node, NATIVE[BLUETOOTH], Box::new(mouse));
    }
    tracer.add(
        &mut world,
        h1,
        BRIDGE[BLUETOOTH],
        Box::new(BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled())),
    );

    // Motes reporting temperature, 32 per 38.4 kbps radio channel.
    let mut radio = None;
    for i in 0..group(MOTES) {
        if i % 32 == 0 {
            let r = world.add_segment(SegmentConfig::mote_radio());
            world.attach(h1, r).expect("attach");
            radio = Some(r);
        }
        let node = world.add_node(format!("mote{i}"));
        world
            .attach(node, radio.expect("radio created"))
            .expect("attach");
        let mote = Mote::new(i as u16 + 1, SimDuration::from_secs(2));
        tracer.add(&mut world, node, NATIVE[MOTES], Box::new(mote));
    }
    let motes_mapper = tracer.add(
        &mut world,
        h1,
        BRIDGE[MOTES],
        Box::new(MotesMapper::new(rt, UsdlLibrary::bundled(), None)),
    );
    tracer.add(
        &mut world,
        h1,
        NATIVE[MOTES],
        Box::new(BaseStation::new(Some(motes_mapper))),
    );

    // RMI echo objects behind one registry, each with its own templated
    // USDL document.
    let reg_node = world.add_node("rmi-registry");
    world.attach(reg_node, hub).expect("attach");
    tracer.add(
        &mut world,
        reg_node,
        NATIVE[RMI],
        Box::new(RmiRegistry::new()),
    );
    let registry = Addr::new(reg_node, REGISTRY_PORT);
    let srv_node = world.add_node("rmi-objects");
    world.attach(srv_node, hub).expect("attach");
    let mut rmi_lib = UsdlLibrary::bundled();
    let mut rmi_names = Vec::new();
    for i in 0..group(RMI) {
        let name = format!("EchoSvc {i:04}");
        rmi_lib
            .register_xml(&umiddle_usdl::builtin::RMI_ECHO.replace("EchoService", &name))
            .expect("templated RMI USDL is valid");
        let server = RmiObjectServer::new(
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
        );
        tracer.add(&mut world, srv_node, NATIVE[RMI], Box::new(server));
        rmi_names.push(name);
    }
    tracer.add(
        &mut world,
        h1,
        BRIDGE[RMI],
        Box::new(RmiMapper::new(rt, rmi_lib, registry, rmi_names)),
    );

    // MediaBroker channels fed by paced producers.
    let mb_node = world.add_node("broker");
    world.attach(mb_node, hub).expect("attach");
    tracer.add(
        &mut world,
        mb_node,
        NATIVE[MEDIABROKER],
        Box::new(platform_mediabroker::MediaBroker::new()),
    );
    let broker = Addr::new(mb_node, platform_mediabroker::BROKER_PORT);
    for i in 0..group(MEDIABROKER) {
        let producer = PacedProducer::new(
            broker,
            &format!("e9chan{i:04}"),
            256,
            SimDuration::from_secs(1),
        );
        tracer.add(&mut world, mb_node, APP, Box::new(producer));
    }
    tracer.add(
        &mut world,
        h1,
        BRIDGE[MEDIABROKER],
        Box::new(MediaBrokerMapper::new(
            rt,
            UsdlLibrary::bundled(),
            broker,
            vec![],
        )),
    );

    // Web-service loggers, appended to in fan-out and tailed back out.
    let ws_node = world.add_node("ws");
    world.attach(ws_node, hub).expect("attach");
    let mut endpoints = Vec::new();
    for i in 0..group(WEBSERVICES) {
        let port = 8080 + i as u16;
        let server = WsServer::logger(&format!("E9 Log {i:04}"), port);
        tracer.add(&mut world, ws_node, NATIVE[WEBSERVICES], Box::new(server));
        endpoints.push(Addr::new(ws_node, port));
    }
    tracer.add(
        &mut world,
        h1,
        BRIDGE[WEBSERVICES],
        Box::new(WsMapper::new(rt, UsdlLibrary::bundled(), endpoints)),
    );

    // Native drivers (fan-out sources) and counting sinks: name, MIME
    // type, period in seconds and message factory.
    type Driver = (&'static str, &'static str, u64, fn(u64) -> UMessage);
    let drivers: [Driver; 3] = [
        ("Toggle Driver", "text/plain", 4, |_| UMessage::text("1")),
        ("Call Driver", "application/octet-stream", 2, |i| {
            UMessage::new(mime("application/octet-stream"), vec![i as u8; 128])
        }),
        ("Log Driver", "text/plain", 4, |i| {
            UMessage::text(format!("entry {i}"))
        }),
    ];
    for (name, m, secs, make) in drivers {
        let source = umiddle_bridges::behaviors::PeriodicSource::new(
            "out",
            SimDuration::from_secs(secs),
            0,
            make,
        );
        let service = NativeService::new(
            name,
            one_port("out", Direction::Output, m),
            rt,
            Box::new(source),
        );
        tracer.add(&mut world, h1, APP, Box::new(service));
    }
    for (name, m) in [
        ("Click Sink", "text/plain"),
        ("Temp Sink", "text/plain"),
        ("Echo Sink", "application/octet-stream"),
        ("Media Sink", "application/octet-stream"),
        ("Log Sink", "text/plain"),
    ] {
        let service = NativeService::new(
            name,
            one_port("in", Direction::Input, m),
            rt,
            Box::new(CountingSink::new(Rc::clone(&tally))),
        );
        tracer.add(&mut world, h1, APP, Box::new(service));
    }

    let rules = vec![
        FanRule::new("Toggle Driver", "out", "E9 Light", "switch-on"),
        FanRule::new("HIDP Mouse", "clicks", "Click Sink", "in"),
        FanRule::new("Mote ", "temperature", "Temp Sink", "in"),
        FanRule::new("Call Driver", "out", "EchoSvc", "request"),
        FanRule::new("EchoSvc", "response", "Echo Sink", "in"),
        FanRule::new("MB channel e9chan", "media-out", "Media Sink", "in"),
        FanRule::new("Log Driver", "out", "E9 Log", "log-in"),
        FanRule::new("E9 Log", "entries", "Log Sink", "in"),
    ];
    let wirer = FanWirer::new(rt, rules, Rc::clone(&tally));
    tracer.add(&mut world, h1, APP, Box::new(wirer));

    Scenario {
        world,
        tally,
        stats: vec![stats],
        quiesce: Rc::default(),
        // Every device, driver and sink is one directory entry.
        expected_entries: (n + 8) as u64,
    }
}

// ---------------------------------------------------------------------
// bridged_stream
// ---------------------------------------------------------------------

/// The Figure-11 RMI-MB test: a MediaBroker channel paced at ~4.7 Mbps
/// (1400-byte frames every 2.4 ms) feeds, through uMiddle, an RMI
/// `echo_ack` endpoint, all on the paper's 10 Mbps hub; the acks come
/// back through uMiddle into a counting sink.
fn bridged_stream(seed: u64, tracer: &Tracer) -> Scenario {
    let mut world = World::new(seed);
    world.trace_mut().set_log_enabled(false);
    let tally = Rc::new(Tally::default());
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());

    let n1 = world.add_node("n1");
    world.attach(n1, hub).expect("attach");
    tracer.add(
        &mut world,
        n1,
        NATIVE[MEDIABROKER],
        Box::new(platform_mediabroker::MediaBroker::new()),
    );
    let broker = Addr::new(n1, platform_mediabroker::BROKER_PORT);
    let producer = PacedProducer::new(broker, "bench", 1400, SimDuration::from_micros(2_400));
    tracer.add(&mut world, n1, APP, Box::new(producer));

    let (h2, rt, stats) = runtime_node(&mut world, tracer, "n2", 0, &[hub]);
    let n3 = world.add_node("n3");
    world.attach(n3, hub).expect("attach");
    tracer.add(
        &mut world,
        n3,
        NATIVE[RMI],
        Box::new(platform_rmi::RmiRegistry::new()),
    );
    let registry = Addr::new(n3, platform_rmi::REGISTRY_PORT);
    tracer.add(
        &mut world,
        n3,
        NATIVE[RMI],
        Box::new(platform_rmi::RmiObjectServer::echo_ack(2099, registry)),
    );
    tracer.add(
        &mut world,
        h2,
        BRIDGE[MEDIABROKER],
        Box::new(MediaBrokerMapper::new(
            rt,
            UsdlLibrary::bundled(),
            broker,
            vec![],
        )),
    );
    tracer.add(
        &mut world,
        h2,
        BRIDGE[RMI],
        Box::new(RmiMapper::new(
            rt,
            UsdlLibrary::bundled(),
            registry,
            vec!["EchoService".to_owned()],
        )),
    );
    let sink = NativeService::new(
        "Bridge Meter",
        one_port("in", Direction::Input, "application/octet-stream"),
        rt,
        Box::new(CountingSink::new(Rc::clone(&tally))),
    );
    tracer.add(&mut world, h2, APP, Box::new(sink));
    let rules = vec![
        FanRule::new("MB channel bench", "media-out", "EchoService", "request")
            .with_qos(QosPolicy::bounded_drop_newest(64 * 1024)),
        FanRule::new("EchoService", "response", "Bridge Meter", "in"),
    ];
    let wirer = FanWirer::new(rt, rules, Rc::clone(&tally));
    tracer.add(&mut world, h2, APP, Box::new(wirer));

    Scenario {
        world,
        tally,
        stats: vec![stats],
        quiesce: Rc::default(),
        // The channel, the echo object and the meter.
        expected_entries: 3,
    }
}

// ---------------------------------------------------------------------
// directory_churn
// ---------------------------------------------------------------------

/// Runtimes in the churn federation, each with `CHURN_SERVICES` services.
const CHURN_RUNTIMES: usize = 100;
const CHURN_SERVICES: usize = 10;
/// Every `CHURNER_STRIDE`-th runtime hosts a churner.
const CHURNER_STRIDE: usize = 10;
/// Translators each churner toggles in and out of the directory.
const CHURN_SLOTS: usize = 4;
/// One churner write per this period.
const CHURN_PERIOD: SimDuration = SimDuration::from_millis(500);
/// One client lookup per this period.
const LOOKUP_PERIOD: SimDuration = SimDuration::from_millis(20);
/// Churn and lookups start once the bootstrap has converged.
const CHURN_START_SECS: u64 = 20;
/// Distinct MIME types the services spread over.
const CHURN_MIMES: usize = 7;

fn churn_mime(k: usize) -> MimeType {
    mime(&format!("app/t{}", k % CHURN_MIMES))
}

/// The E12 shape: `CHURN_RUNTIMES` runtimes × `CHURN_SERVICES` services
/// on one 10 Mbps hub, gossiping directory deltas. After the bootstrap,
/// churners on every tenth runtime unregister and re-register their
/// translators (writes), while a client on runtime 0 issues concrete
/// port lookups and holds one `connect_query` binding per MIME type,
/// which must rebind as translators come and go (reads).
fn directory_churn(seed: u64, tracer: &Tracer) -> Scenario {
    let mut world = World::new(seed);
    world.trace_mut().set_log_enabled(false);
    let tally = Rc::new(Tally::default());
    let quiesce = Rc::new(Cell::new(false));
    let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
    let rng = SimRng::seed_from_u64(seed);
    let mut stats = Vec::new();
    for i in 0..CHURN_RUNTIMES {
        let (node, rt, st) = runtime_node(&mut world, tracer, &format!("h{i}"), i as u32, &[hub]);
        stats.push(st);
        for j in 0..CHURN_SERVICES {
            let m = churn_mime(i * CHURN_SERVICES + j);
            let shape = Shape::builder()
                .digital("in", Direction::Input, m.clone())
                .digital("out", Direction::Output, m)
                .build()
                .expect("valid shape");
            let service = NativeService::new(&format!("svc-{i}-{j}"), shape, rt, Box::new(Idle));
            tracer.add(&mut world, node, APP, Box::new(service));
        }
        if i % CHURNER_STRIDE == CHURNER_STRIDE / 2 {
            let churner = Churner::new(rt, i, rng.split(i as u64), &tally, &quiesce);
            tracer.add(&mut world, node, APP, Box::new(churner));
        }
        if i == 0 {
            let client = ChurnClient::new(rt, rng.split(u64::MAX), &tally, &quiesce);
            tracer.add(&mut world, node, APP, Box::new(client));
        }
    }
    let churners = CHURN_RUNTIMES / CHURNER_STRIDE;
    Scenario {
        world,
        tally,
        stats,
        quiesce,
        // Services, churned translators and the client.
        expected_entries: (CHURN_RUNTIMES * CHURN_SERVICES + churners * CHURN_SLOTS + 1) as u64,
    }
}

/// One churned translator.
struct Slot {
    name: String,
    mime: MimeType,
    /// Registered id, once acknowledged.
    id: Option<TranslatorId>,
    /// Token of an unacknowledged registration.
    pending: Option<u64>,
}

/// Toggles its translators in and out of the directory, one write per
/// [`CHURN_PERIOD`], in a seeded order. A registration is acknowledged
/// by `Registered`, an unregistration by the runtime's `Disappeared`
/// notification for that id.
struct Churner {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    prefix: String,
    slots: Vec<Slot>,
    leaving: Vec<TranslatorId>,
    rng: SimRng,
    tally: Rc<Tally>,
    quiesce: Rc<Cell<bool>>,
}

impl Churner {
    fn new(
        runtime: ProcId,
        index: usize,
        rng: SimRng,
        tally: &Rc<Tally>,
        quiesce: &Rc<Cell<bool>>,
    ) -> Churner {
        let prefix = format!("churn-{index}-");
        let slots = (0..CHURN_SLOTS)
            .map(|k| Slot {
                name: format!("{prefix}{k}"),
                mime: churn_mime(index + k),
                id: None,
                pending: None,
            })
            .collect();
        Churner {
            runtime,
            client: None,
            prefix,
            slots,
            leaving: Vec::new(),
            rng,
            tally: Rc::clone(tally),
            quiesce: Rc::clone(quiesce),
        }
    }

    fn register(&mut self, ctx: &mut Ctx<'_>, k: usize) {
        let slot = &self.slots[k];
        let shape = one_port_mime("in", Direction::Input, slot.mime.clone());
        let profile = TranslatorProfile::builder(
            TranslatorId::new(RuntimeId(u32::MAX), 0),
            slot.name.clone(),
        )
        .shape(shape)
        .build();
        let me = ctx.me();
        let client = self.client.as_mut().expect("client set in on_start");
        let token = client.register(ctx, profile, me);
        self.slots[k].pending = Some(token);
    }
}

fn one_port_mime(port: &str, dir: Direction, m: MimeType) -> Shape {
    Shape::builder()
        .digital(port, dir, m)
        .build()
        .expect("valid shape")
}

impl Process for Churner {
    fn name(&self) -> &str {
        "bench-churner"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::NameContains(self.prefix.clone()));
        self.client = Some(client);
        for k in 0..self.slots.len() {
            self.register(ctx, k);
        }
        ctx.set_timer(SimDuration::from_secs(CHURN_START_SECS), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.quiesce.get() {
            // Settle: every slot back in the directory, then stop.
            for k in 0..self.slots.len() {
                if self.slots[k].id.is_none() && self.slots[k].pending.is_none() {
                    self.register(ctx, k);
                }
            }
            return;
        }
        let k = self.rng.gen_range(0..self.slots.len());
        if let Some(id) = self.slots[k].id.take() {
            self.client
                .as_ref()
                .expect("client set in on_start")
                .unregister(ctx, id);
            self.leaving.push(id);
        } else if self.slots[k].pending.is_none() {
            self.register(ctx, k);
        }
        ctx.set_timer(CHURN_PERIOD, 0);
    }
    fn on_local(&mut self, _ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Registered { token, translator } => {
                if let Some(slot) = self.slots.iter_mut().find(|s| s.pending == Some(token)) {
                    slot.pending = None;
                    slot.id = Some(translator);
                    bump(&self.tally.registered, 1);
                }
            }
            RuntimeEvent::Directory(DirectoryEvent::Disappeared(id)) => {
                if let Some(pos) = self.leaving.iter().position(|l| *l == id) {
                    self.leaving.swap_remove(pos);
                    bump(&self.tally.unregistered, 1);
                }
            }
            _ => {}
        }
    }
}

/// Holds one `connect_query` binding per MIME type from its own output
/// ports, and issues a concrete port lookup every [`LOOKUP_PERIOD`].
struct ChurnClient {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    rng: SimRng,
    tally: Rc<Tally>,
    quiesce: Rc<Cell<bool>>,
}

impl ChurnClient {
    fn new(
        runtime: ProcId,
        rng: SimRng,
        tally: &Rc<Tally>,
        quiesce: &Rc<Cell<bool>>,
    ) -> ChurnClient {
        ChurnClient {
            runtime,
            client: None,
            rng,
            tally: Rc::clone(tally),
            quiesce: Rc::clone(quiesce),
        }
    }
}

impl Process for ChurnClient {
    fn name(&self) -> &str {
        "bench-churn-client"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut client = RuntimeClient::new(self.runtime);
        let mut shape = Shape::builder();
        for k in 0..CHURN_MIMES {
            shape = shape.digital(&format!("o{k}"), Direction::Output, churn_mime(k));
        }
        let profile =
            TranslatorProfile::builder(TranslatorId::new(RuntimeId(u32::MAX), 0), "churn-client")
                .shape(shape.build().expect("valid shape"))
                .build();
        let me = ctx.me();
        client.register(ctx, profile, me);
        self.client = Some(client);
        ctx.set_timer(SimDuration::from_secs(CHURN_START_SECS), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.quiesce.get() {
            return;
        }
        let k = self.rng.gen_range(0..CHURN_MIMES);
        let query = Query::has_port(Direction::Input, PortKind::Digital(churn_mime(k)));
        self.client
            .as_mut()
            .expect("client set in on_start")
            .lookup(ctx, query);
        bump(&self.tally.lookups_sent, 1);
        ctx.set_timer(LOOKUP_PERIOD, 0);
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Registered { translator, .. } => {
                let client = self.client.as_mut().expect("client set in on_start");
                for k in 0..CHURN_MIMES {
                    let query = Query::has_port(Direction::Input, PortKind::Digital(churn_mime(k)));
                    client.connect_query(
                        ctx,
                        PortRef::new(translator, format!("o{k}").as_str()),
                        query,
                        QosPolicy::unbounded(),
                    );
                }
            }
            RuntimeEvent::LookupResult { .. } => bump(&self.tally.lookups_answered, 1),
            RuntimeEvent::PathBound { .. } => bump(&self.tally.bound, 1),
            RuntimeEvent::ConnectFailed { .. } => bump(&self.tally.connect_failed, 1),
            _ => {}
        }
    }
}
