//! Micro-benchmarks for the CPU-bound codecs, matchers and span journal
//! the system is built from (real wall-clock time, not simulated time),
//! on the in-tree `bench::timing` harness.

use std::hint::black_box;

use bench::timing::bench_function;
use platform_bluetooth::{ObexPacket, SdpPdu, ServiceRecord};
use platform_rmi::JavaValue;
use platform_upnp::{DeviceDesc, DeviceLogic, LightLogic, SoapCall};
use simnet::{DetailArg, SimTime, SpanDetail, Trace};
use umiddle_core::{
    DeltaOp, Direction, PerceptionType, PortKind, Query, RuntimeId, Shape, TranslatorId,
    TranslatorProfile, UMessage, WireMessage,
};
use umiddle_usdl::{Element, UsdlDocument, UsdlLibrary};

fn bench_usdl() {
    let clock_xml = umiddle_usdl::builtin::UPNP_CLOCK;
    bench_function("usdl_parse_clock", || {
        UsdlDocument::parse(black_box(clock_xml)).unwrap()
    });
    let doc = UsdlDocument::parse(clock_xml).unwrap();
    bench_function("usdl_profile_build", || {
        doc.profile(Some(black_box("Kitchen Clock")))
    });
    bench_function("usdl_library_bundled", UsdlLibrary::bundled);
}

fn bench_xml() {
    let desc = LightLogic::new("Bench Light", "uuid:b").description();
    let xml = desc.to_xml();
    bench_function("upnp_description_parse", || {
        DeviceDesc::parse(black_box(&xml)).unwrap()
    });
    bench_function("upnp_description_serialize", || desc.to_xml());
    let soap = SoapCall::new("SwitchPower", "SetPower").with_arg("Power", "1");
    let soap_xml = soap.to_xml();
    bench_function("soap_round_trip", || {
        SoapCall::parse(black_box(&soap_xml)).unwrap()
    });
    bench_function("xml_parse_generic", || {
        Element::parse(black_box(&xml)).unwrap()
    });
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
    bench_usdl();
    bench_xml();
    bench_wire();
    bench_matching();
    bench_binary_codecs();
    bench_trace();
}
