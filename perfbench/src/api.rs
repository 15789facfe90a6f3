//! Host-time of single API calls, measured outside any world on the
//! workloads' own message shapes: the XML and SOAP parsers the
//! federation's UPnP path runs, the wire and JRMP codecs on the bridged
//! stream's 1400-byte messages, and the directory at the churn
//! federation's size and at ROADMAP's 1M-port point.

use std::hint::black_box;
use std::time::Instant;

use simnet::{Addr, NodeId, SimTime};
use umiddle_core::{
    ConnectionId, DeltaOp, Direction, DirectoryReplica, DirectoryTable, MimeType, PortKind,
    PortRef, Query, RuntimeId, Shape, TranslatorId, TranslatorProfile, UMessage, WireMessage,
};

/// One timed API: its metric prefix and per-call samples (ns).
pub struct ApiTiming {
    /// Metric name prefix.
    pub name: &'static str,
    /// Per-call host nanoseconds.
    pub samples: Vec<u64>,
}

/// Calls timed per API: enough for ten samples above the p99.
const CALLS: usize = 2_000;
/// Untimed calls first, so caches and lazy set-up are warm.
const WARM: usize = 200;

fn time<R>(name: &'static str, calls: usize, mut f: impl FnMut(usize) -> R) -> ApiTiming {
    for i in 0..WARM {
        black_box(f(i));
    }
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let t0 = Instant::now();
        black_box(f(i));
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    ApiTiming { name, samples }
}

fn mime(s: &str) -> MimeType {
    s.parse().expect("static mime")
}

/// A directory profile shaped like a churn-federation service.
fn service_profile(runtime: u32, local: u32, k: usize) -> TranslatorProfile {
    let m = mime(&format!("app/t{}", k % 7));
    let shape = Shape::builder()
        .digital("in", Direction::Input, m.clone())
        .digital("out", Direction::Output, m)
        .build()
        .expect("valid shape");
    TranslatorProfile::builder(
        TranslatorId::new(RuntimeId(runtime), local),
        format!("svc-{runtime}-{local}"),
    )
    .shape(shape)
    .build()
}

fn home(runtime: u32) -> Addr {
    Addr::new(NodeId::from_index(runtime as usize), 47_001)
}

/// Runs every API timing; `seed` picks the query order.
pub fn run(seed: u64) -> Vec<ApiTiming> {
    let mut rng = simnet::SimRng::seed_from_u64(seed);
    let mut out = Vec::new();

    // The federation's UPnP control path: a light's description (parsed
    // at discovery) and the SetPower call its mapper sends per toggle.
    use platform_upnp::DeviceLogic;
    let desc = platform_upnp::LightLogic::new("E9 Light 0000", "uuid:e9l0").description();
    let desc_xml = desc.to_xml();
    out.push(time("umiddle-usdl.xml.parse_ns", CALLS, |_| {
        umiddle_usdl::Element::parse(black_box(&desc_xml)).expect("valid XML")
    }));
    let soap = platform_upnp::SoapCall::new("SwitchPower", "SetPower")
        .with_arg("Power", "1")
        .to_xml();
    out.push(time("platform-upnp.soap.parse_ns", CALLS, |_| {
        platform_upnp::SoapCall::parse(black_box(&soap)).expect("valid SOAP")
    }));

    // The bridged stream's message: 1400 bytes of octet-stream, as a
    // wire path message and as the JRMP argument the RMI mapper sends.
    let path = WireMessage::PathMessage {
        connection: ConnectionId::new(RuntimeId(0), 1),
        dst: PortRef::new(TranslatorId::new(RuntimeId(0), 2), "request"),
        msg: UMessage::new(mime("application/octet-stream"), vec![0xAB; 1400]),
    }
    .encode();
    out.push(time("umiddle-core.wire.path_decode_ns", CALLS, |_| {
        WireMessage::decode(black_box(&path)).expect("valid frame")
    }));
    let arg = platform_rmi::JavaValue::Bytes(vec![0xAB; 1400].into()).marshal();
    out.push(time("platform-rmi.marshal.unmarshal_ns", CALLS, |_| {
        platform_rmi::JavaValue::unmarshal(black_box(&arg)).expect("valid JRMP value")
    }));

    // The churn federation's directory: 100 runtimes × 10 services.
    let mut table = DirectoryTable::new();
    for r in 0..100u32 {
        for l in 0..10u32 {
            let k = (r * 10 + l) as usize;
            table.upsert(service_profile(r, l, k), home(r), SimTime::MAX, false);
        }
    }
    let queries: Vec<Query> = (0..7)
        .map(|k| {
            Query::has_port(
                Direction::Input,
                PortKind::Digital(mime(&format!("app/t{k}"))),
            )
        })
        .collect();
    let order: Vec<usize> = (0..CALLS + WARM).map(|_| rng.gen_range(0..7)).collect();
    out.push(time("umiddle-core.directory.lookup_ns", CALLS, |i| {
        table.lookup(&queries[order[i]]).len()
    }));

    // A churn write arriving at a replica: alternately one origin's
    // `Add` and `Remove` of the same translator.
    let mut replica = DirectoryReplica::new(RuntimeId(0), 1024);
    let mut events = Vec::new();
    for r in 1..100u32 {
        let ops: Vec<DeltaOp> = (0..10)
            .map(|l| DeltaOp::Add(service_profile(r, l, (r * 10 + l) as usize)))
            .collect();
        replica.apply_delta(RuntimeId(r), home(r), 1, &ops, SimTime::ZERO, &mut events);
    }
    let churned = service_profile(5, 100, 3);
    let add = [DeltaOp::Add(churned.clone())];
    let remove = [DeltaOp::Remove(churned.id())];
    let mut version = 11u64;
    out.push(time("umiddle-core.replica.apply_delta_ns", CALLS, |i| {
        events.clear();
        let ops: &[DeltaOp] = if i % 2 == 0 { &add } else { &remove };
        let outcome = replica.apply_delta(
            RuntimeId(5),
            home(5),
            version,
            ops,
            SimTime::ZERO,
            &mut events,
        );
        version += 1;
        outcome
    }));
    drop(replica);

    // ROADMAP's 1M-port point: 10,000 profiles × 100 ports over 512
    // MIME types, queried by concrete (direction, MIME) pairs.
    let mut big = DirectoryTable::new();
    for p in 0..10_000usize {
        let mut shape = Shape::builder();
        for k in 0..100 {
            let dir = if k % 2 == 0 {
                Direction::Output
            } else {
                Direction::Input
            };
            shape = shape.digital(
                &format!("p{k}"),
                dir,
                mime(&format!("app/t{}", (p * 100 + k) % 512)),
            );
        }
        let r = (p / 1000) as u32;
        let profile = TranslatorProfile::builder(
            TranslatorId::new(RuntimeId(r), (p % 1000) as u32),
            format!("svc-{p}"),
        )
        .shape(shape.build().expect("valid shape"))
        .build();
        big.upsert(profile, home(r), SimTime::MAX, false);
    }
    let big_queries: Vec<Query> = (0..512)
        .map(|m| {
            Query::has_port(
                Direction::Output,
                PortKind::Digital(mime(&format!("app/t{m}"))),
            )
        })
        .collect();
    let order: Vec<usize> = (0..CALLS + WARM).map(|_| rng.gen_range(0..512)).collect();
    out.push(time("umiddle-core.directory.lookup_1m_ns", CALLS, |i| {
        big.lookup(&big_queries[order[i]]).len()
    }));
    out
}
