//! Micro-benchmarks for the CPU-bound codecs, matchers and span journal
//! the system is built from (real wall-clock time, not simulated time),
//! on the in-tree `bench::timing` harness.
//!
//! `cargo bench --offline -p bench --bench micro` prints every row and
//! rewrites `BENCH_micro.json` at the repository root with the XML and
//! HTTP rows: `after` is this run, `before` the same rows measured on
//! the DOM-based codecs the borrowing reader and writers replaced,
//! frozen in [`BEFORE`].

use std::hint::black_box;

use bench::timing::{bench_function, Spread};
use platform_bluetooth::{ObexPacket, SdpPdu, ServiceRecord};
use platform_rmi::JavaValue;
use platform_upnp::{
    DeviceDesc, DeviceLogic, HttpAccumulator, HttpRequest, LightLogic, SoapCall, SoapResult,
};
use platform_webservices::{MethodCall, MethodResponse};
use simnet::{DetailArg, Json, Layout, SimTime, SpanDetail, Trace};
use umiddle_core::{
    DeltaOp, Direction, PerceptionType, PortKind, Query, RuntimeId, Shape, TranslatorId,
    TranslatorProfile, UMessage, WireMessage,
};
use umiddle_usdl::{Element, UsdlDocument, UsdlLibrary};

/// The XML and HTTP rows measured on the DOM-based codecs (an owned
/// `Element` tree per message, `BTreeMap` HTTP heads), on the same
/// harness and host as the first `after` record: `(row, median, p10,
/// p90)` in ns per call.
const BEFORE: [(&str, f64, f64, f64); 8] = [
    ("usdl_parse_clock", 26932.1, 25918.5, 38308.0),
    ("upnp_description_parse", 8774.5, 8369.6, 9379.6),
    ("upnp_description_serialize", 3671.0, 3416.0, 4391.6),
    ("soap_round_trip", 1393.1, 1346.5, 1481.7),
    ("soap_result_round_trip", 2000.1, 1947.1, 2539.6),
    ("xmlrpc_round_trip", 3797.7, 3208.4, 5141.2),
    ("http_request_round_trip", 2610.6, 1922.5, 2749.8),
    ("xml_parse_generic", 9790.4, 9298.1, 10610.8),
];

fn bench_usdl() -> Spread {
    let clock_xml = umiddle_usdl::builtin::UPNP_CLOCK;
    let parse = bench_function("usdl_parse_clock", || {
        UsdlDocument::parse(black_box(clock_xml)).unwrap()
    });
    let doc = UsdlDocument::parse(clock_xml).unwrap();
    bench_function("usdl_profile_build", || {
        doc.profile(Some(black_box("Kitchen Clock")))
    });
    bench_function("usdl_library_bundled", UsdlLibrary::bundled);
    parse
}

/// The XML and HTTP rows, in [`BEFORE`]'s order after `usdl_parse_clock`.
fn bench_xml() -> Vec<Spread> {
    let desc = LightLogic::new("Bench Light", "uuid:b").description();
    let xml = desc.to_xml();
    let mut rows = vec![
        bench_function("upnp_description_parse", || {
            DeviceDesc::parse(black_box(&xml)).unwrap()
        }),
        bench_function("upnp_description_serialize", || desc.to_xml()),
    ];
    let soap = SoapCall::new("SwitchPower", "SetPower").with_arg("Power", "1");
    let soap_xml = soap.to_xml();
    rows.push(bench_function("soap_round_trip", || {
        SoapCall::parse(black_box(&soap_xml)).unwrap()
    }));
    let result = SoapResult::Ok {
        action: "GetTime".to_owned(),
        args: vec![("CurrentTime".to_owned(), "12:34:56".to_owned())],
    };
    rows.push(bench_function("soap_result_round_trip", || {
        SoapResult::parse(&black_box(&result).to_xml()).unwrap()
    }));
    let call = MethodCall::new("append", vec!["entry 42".to_owned()]);
    let response = MethodResponse::Value("ok".to_owned());
    rows.push(bench_function("xmlrpc_round_trip", || {
        let call = MethodCall::parse(&black_box(&call).to_xml()).unwrap();
        let response = MethodResponse::parse(&black_box(&response).to_xml()).unwrap();
        (call, response)
    }));
    rows.push(bench_function("http_request_round_trip", || {
        let bytes = HttpRequest::new("POST", "/control")
            .with_header("soapaction", soap.soap_action_header())
            .with_body(black_box(&soap_xml).as_bytes().to_vec())
            .to_bytes();
        let mut acc = HttpAccumulator::new();
        acc.push(&bytes);
        acc.take_message().unwrap().unwrap()
    }));
    rows.push(bench_function("xml_parse_generic", || {
        Element::parse(black_box(&xml)).unwrap()
    }));
    rows
}

fn spread_json(median: f64, p10: f64, p90: f64) -> Json {
    Json::inline()
        .with("median_ns", Json::fixed(median, 1))
        .with("p10_ns", Json::fixed(p10, 1))
        .with("p90_ns", Json::fixed(p90, 1))
}

/// Rewrites `BENCH_micro.json` with `after` as this run's XML/HTTP rows.
fn record(after: &[Spread]) {
    let before = Json::object(
        Layout::Block,
        BEFORE
            .iter()
            .map(|&(row, median, p10, p90)| (row, spread_json(median, p10, p90))),
    );
    let after = Json::object(
        Layout::Block,
        BEFORE
            .iter()
            .zip(after)
            .map(|(&(row, ..), s)| (row, spread_json(s.median_ns, s.p10_ns, s.p90_ns))),
    );
    let doc = Json::block()
        .with("name", "micro")
        .with(
            "units",
            "median_ns/p10_ns/p90_ns: wall-clock nanoseconds per call, the median and 10th/90th \
             percentiles of the harness's batches (machine-dependent)",
        )
        .with(
            "description",
            "XML and HTTP codec rows of `cargo bench --offline -p bench --bench micro`. 'before' \
             is the DOM-based layer (an owned Element tree per message or document, writers \
             that build one, BTreeMap HTTP heads), measured once and frozen in benches/micro.rs; \
             'after' is the pull reader with typed readers for every message and document \
             (SOAP, XML-RPC, USDL, UPnP descriptions), direct writers and in-place HTTP heads. \
             usdl_parse_clock and upnp_description_parse time the typed document readers; \
             xml_parse_generic times the reference DOM (Element::parse) on the same \
             description. The round-trip rows serialize and parse (http_request_round_trip: \
             build, write, accumulate and read one SOAP POST); soap_round_trip parses a \
             SetPower call.",
        )
        .with("command", "cargo bench --offline -p bench --bench micro")
        .with("before", before)
        .with("after", after);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    std::fs::write(path, doc.document()).expect("BENCH_micro.json is writable");
    println!("wrote {path}");
}

fn bench_wire() {
    let profile = {
        let shape = Shape::builder()
            .digital("in", Direction::Input, "image/jpeg".parse().unwrap())
            .physical(
                "screen",
                Direction::Output,
                PerceptionType::Visible,
                "screen",
            )
            .build()
            .unwrap();
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(1), 7), "TV")
            .platform("upnp")
            .shape(shape)
            .attr("room", "den")
            .build()
    };
    let delta = WireMessage::Delta {
        origin: RuntimeId(1),
        home: simnet::Addr::new(simnet::NodeId::from_index(1), 47_001),
        first: 1,
        ops: vec![DeltaOp::Add(profile)],
    };
    let bytes = delta.encode();
    bench_function("wire_delta_add_encode", || delta.encode());
    bench_function("wire_delta_add_decode", || {
        WireMessage::decode(black_box(&bytes)).unwrap()
    });
    let path = WireMessage::PathMessage {
        connection: umiddle_core::ConnectionId::new(RuntimeId(0), 1),
        dst: umiddle_core::PortRef::new(TranslatorId::new(RuntimeId(1), 7), "in"),
        msg: UMessage::new("image/jpeg".parse().unwrap(), vec![0xAB; 1400]),
    };
    let path_bytes = path.encode();
    bench_function("wire_path_1400B_round_trip", || {
        WireMessage::decode(black_box(&path_bytes)).unwrap()
    });
}

fn bench_matching() {
    let profiles: Vec<TranslatorProfile> = (0..100)
        .map(|i| {
            let shape = Shape::builder()
                .digital(
                    "out",
                    Direction::Output,
                    if i % 2 == 0 {
                        "image/jpeg"
                    } else {
                        "text/plain"
                    }
                    .parse()
                    .unwrap(),
                )
                .build()
                .unwrap();
            TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), i), format!("device-{i}"))
                .shape(shape)
                .build()
        })
        .collect();
    let query = Query::has_port(
        Direction::Output,
        PortKind::Digital("image/*".parse().unwrap()),
    )
    .and(Query::NameContains("device".to_owned()));
    bench_function("query_eval_100_profiles", || {
        profiles
            .iter()
            .filter(|p| query.matches(black_box(p)))
            .count()
    });
    let mime_a: umiddle_core::MimeType = "image/jpeg".parse().unwrap();
    let mime_b: umiddle_core::MimeType = "image/*".parse().unwrap();
    bench_function("mime_match", || {
        black_box(&mime_a).matches(black_box(&mime_b))
    });
}

fn bench_binary_codecs() {
    let pdu = SdpPdu::SearchResponse {
        transaction: 1,
        records: vec![
            ServiceRecord::new(0x10000, "bip-camera", "Camera", 9).with_attribute(1, "imaging")
        ],
    };
    let pdu_bytes = pdu.encode();
    bench_function("sdp_round_trip", || {
        SdpPdu::decode(black_box(&pdu_bytes)).unwrap()
    });
    let packets = platform_bluetooth::put_packets("x.jpg", "image/jpeg", vec![7u8; 4096], 512);
    let first = packets[0].encode();
    bench_function("obex_decode", || {
        ObexPacket::decode(black_box(&first)).unwrap()
    });
    let value = JavaValue::Object {
        class: "edu.gatech.Echo".to_owned(),
        fields: vec![("payload".to_owned(), JavaValue::Bytes(vec![1; 1400].into()))],
    };
    let marshaled = value.marshal();
    bench_function("rmi_marshal_1400B", || value.marshal());
    bench_function("rmi_unmarshal_1400B", || {
        JavaValue::unmarshal(black_box(&marshaled)).unwrap()
    });
}

/// Capacity of the ring `trace_span_instant` records into: small enough
/// to stay in cache, so it times the record itself.
const SMALL_RING: usize = 4_096;

fn bench_trace() {
    let detail = || SpanDetail::new(&["bytes=", ""], [DetailArg::U64(1400)]);
    let mut small = Trace::new(SMALL_RING);
    let src = small.span_source("rt0");
    let mut now = 0u64;
    bench_function("trace_span_instant", || {
        now += 1;
        small.span_from(7, SimTime::from_nanos(now), src, "deliver.local", detail())
    });
    for corrs in [1u64, 1_000] {
        let mut t = Trace::default();
        let src = t.span_source("rt0");
        let mut i = 0u64;
        bench_function(&format!("trace_span_begin_end_{corrs}corr"), || {
            i += 1;
            let at = SimTime::from_nanos(i);
            let id = t.span_begin_from(i % corrs + 1, at, src, "queue.wait", SpanDetail::EMPTY);
            t.span_end(id, at)
        });
    }
    // A default journal already full, so every span pays its share of
    // the half-capacity evictions.
    let mut full = Trace::default();
    let src = full.span_source("rt0");
    while full.ring_overwrites() == 0 {
        now += 1;
        full.span_from(7, SimTime::from_nanos(now), src, "deliver.local", detail());
    }
    bench_function("trace_span_full_ring", || {
        now += 1;
        full.span_from(7, SimTime::from_nanos(now), src, "deliver.local", detail())
    });
}

fn main() {
    println!("uMiddle micro-benchmarks (wall clock, in-tree harness)");
    let mut recorded = vec![bench_usdl()];
    recorded.extend(bench_xml());
    bench_wire();
    bench_matching();
    bench_binary_codecs();
    bench_trace();
    record(&recorded);
}
