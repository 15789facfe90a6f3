//! The typed XML-RPC and service-description readers against reference
//! readers written over the `Element` DOM, which answer the way these
//! codecs did when they read through it, on generated documents
//! (comments, CDATA, processing instructions, entities, whitespace,
//! prefixes, extra or repeated children and attributes, self-closing
//! leaves, a `fault` before or after `params`) and on mutants of real
//! messages: byte flips, truncations, random bytes and deep nesting. No
//! reader may panic, each must accept or reject exactly as its reference
//! does, and what it decodes is never larger than its input.

use platform_webservices::{MethodCall, MethodResponse, ServiceDescription};
use simnet::SimRng;
use umiddle_usdl::Element;

fn dom_method_call(xml: &str) -> Option<MethodCall> {
    let root = Element::parse(xml).ok()?;
    if root.local_name() != "methodCall" {
        return None;
    }
    let method = root.child("methodName")?.text();
    let params = root
        .child("params")
        .map(|ps| {
            ps.children_named("param")
                .filter_map(|p| p.child("value").map(Element::text))
                .collect()
        })
        .unwrap_or_default();
    Some(MethodCall { method, params })
}

fn dom_method_response(xml: &str) -> Option<MethodResponse> {
    let root = Element::parse(xml).ok()?;
    if root.local_name() != "methodResponse" {
        return None;
    }
    if let Some(fault) = root.child("fault") {
        return Some(MethodResponse::Fault {
            code: fault.child("faultCode")?.text().parse().ok()?,
            message: fault.child("faultString")?.text(),
        });
    }
    Some(MethodResponse::Value(
        root.child("params")?.child("param")?.child("value")?.text(),
    ))
}

fn dom_service_description(xml: &str) -> Option<ServiceDescription> {
    let root = Element::parse(xml).ok()?;
    if root.local_name() != "service" {
        return None;
    }
    Some(ServiceDescription {
        name: root.attr("name")?.to_owned(),
        kind: root.attr("kind")?.to_owned(),
        operations: root
            .children_named("operation")
            .filter_map(|o| o.attr("name").map(str::to_owned))
            .collect(),
    })
}

const TEXTS: &[&str] = &[
    "entry 1",
    "",
    " padded ",
    "a &lt;b&gt; &amp; c",
    "&#x41;&#66;",
    "<![CDATA[ <raw> ]]>",
    "x<!-- split -->y",
    "p<?pi?>q",
    " <inner>dropped</inner> kept",
];

fn noise(rng: &mut SimRng, out: &mut String) {
    match rng.gen_range(0..5) {
        0 => out.push_str("<!-- c -->"),
        1 => out.push_str("<?pi?>"),
        2 => out.push_str("\n "),
        _ => {}
    }
}

fn leaf(rng: &mut SimRng, name: &str, out: &mut String) {
    if rng.gen_bool(0.15) {
        out.push_str(&format!("<{name}/>"));
        return;
    }
    out.push_str(&format!("<{name}>"));
    for _ in 0..rng.gen_range(1usize..3) {
        out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]);
    }
    out.push_str(&format!("</{name}>"));
}

/// A `params` element of zero or more `param`s, some without a value
/// or with two.
fn params(rng: &mut SimRng, out: &mut String) {
    if rng.gen_bool(0.1) {
        out.push_str("<params/>");
        return;
    }
    out.push_str("<params>");
    for _ in 0..rng.gen_range(0usize..4) {
        noise(rng, out);
        let param = ["param", "x:param", "other"][rng.gen_range(0..3)];
        out.push_str(&format!("<{param}>"));
        for _ in 0..rng.gen_range(0usize..3) {
            let value = ["value", "x:value", "string"][rng.gen_range(0..3)];
            leaf(rng, value, out);
        }
        out.push_str(&format!("</{param}>"));
    }
    out.push_str("</params>");
}

fn document(rng: &mut SimRng, root: &str, body: impl FnOnce(&mut SimRng, &mut String)) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.7) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    let root = if rng.gen_bool(0.9) { root } else { "other" };
    out.push_str(&format!("<{root}>"));
    noise(rng, &mut out);
    body(rng, &mut out);
    noise(rng, &mut out);
    out.push_str(&format!("</{root}>"));
    out
}

fn call_doc(rng: &mut SimRng) -> String {
    document(rng, "methodCall", |rng, out| {
        for _ in 0..rng.gen_range(0usize..4) {
            match rng.gen_range(0..4) {
                0 | 1 => leaf(rng, "methodName", out),
                2 => params(rng, out),
                _ => out.push_str("<extra>e</extra>"),
            }
        }
    })
}

fn response_doc(rng: &mut SimRng) -> String {
    document(rng, "methodResponse", |rng, out| {
        if rng.gen_bool(0.7) {
            out.push_str("<params><param>");
            leaf(rng, "value", out);
            out.push_str("</param></params>");
        }
        for _ in 0..rng.gen_range(0usize..3) {
            match rng.gen_range(0..4) {
                0 => {
                    out.push_str("<fault>");
                    // Now and then a second code, which the reader skips.
                    for code in ["404", "500"].iter().take(rng.gen_range(1..3)) {
                        out.push_str(&format!("<faultCode>{code}</faultCode>"));
                    }
                    if rng.gen_bool(0.2) {
                        leaf(rng, "faultCode", out);
                    }
                    leaf(rng, "faultString", out);
                    out.push_str("</fault>");
                }
                _ => params(rng, out),
            }
        }
    })
}

/// A `service` description: its `name` and `kind` attributes, each
/// now and then missing or repeated, and `operation` children with or
/// without a name, some nested where they do not count.
fn description_doc(rng: &mut SimRng) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.7) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    let root = ["service", "x:service", "service", "other"][rng.gen_range(0..4)];
    out.push_str(&format!("<{root}"));
    for (key, values) in [("name", ["Log", "a &amp; b"]), ("kind", ["logger", "w"])] {
        // Mostly once, now and then missing or repeated.
        let times = [1, 1, 1, 1, 0, 2][rng.gen_range(0..6)];
        for value in &values[..times] {
            out.push_str(&format!(" {key}='{value}'"));
        }
    }
    out.push('>');
    for _ in 0..rng.gen_range(0usize..5) {
        noise(rng, &mut out);
        match rng.gen_range(0..6) {
            0 => out.push_str("<operation/>"),
            1 => out.push_str("<extra><operation name='nested'/></extra>"),
            2 => out.push_str("<x:operation name=\"tail\" name=\"again\"><!-- c --></x:operation>"),
            _ => {
                let op = ["append", "a&lt;b", "tail", ""][rng.gen_range(0..4)];
                out.push_str(&format!("<operation name=\"{op}\"/>"));
            }
        }
    }
    out.push_str(&format!("</{root}>"));
    out
}

fn mutated(rng: &mut SimRng, doc: String) -> String {
    let mut bytes = doc.into_bytes();
    match rng.gen_range(0..4) {
        0 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
        }
        1 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = b"<>/&;='\" x"[rng.gen_range(0..10)];
        }
        _ => {}
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn typed_readers_match_the_dom() {
    simnet::check_cases("xmlrpc_typed_readers_match_the_dom", 512, |_, rng| {
        let call = {
            let doc = call_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(MethodCall::parse(&call), dom_method_call(&call), "{call}");
        let response = {
            let doc = response_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(
            MethodResponse::parse(&response),
            dom_method_response(&response),
            "{response}"
        );
        let description = {
            let doc = description_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(
            ServiceDescription::parse(&description),
            dom_service_description(&description),
            "{description}"
        );
    });
}

#[test]
fn generated_documents_are_mostly_accepted() {
    let mut rng = SimRng::seed_from_u64(5);
    let (mut calls, mut responses, mut faults, mut descriptions) = (0, 0, 0, 0);
    for _ in 0..400 {
        calls += usize::from(MethodCall::parse(&call_doc(&mut rng)).is_some());
        let response = MethodResponse::parse(&response_doc(&mut rng));
        responses += usize::from(response.is_some());
        faults += usize::from(matches!(response, Some(MethodResponse::Fault { .. })));
        descriptions +=
            usize::from(ServiceDescription::parse(&description_doc(&mut rng)).is_some());
    }
    assert!(
        calls > 150 && responses > 150 && faults > 40 && descriptions > 150,
        "{calls} calls, {responses} responses, {faults} faults, {descriptions} descriptions"
    );
}

/// Feeds `decoder` and `reference` the frame, every single-byte flip and
/// truncation of it, and random byte strings; they must agree on each.
fn battery<T: PartialEq + std::fmt::Debug>(
    name: &str,
    corpus: &[String],
    decoder: impl Fn(&str) -> T + std::panic::RefUnwindSafe,
    reference: impl Fn(&str) -> T + std::panic::RefUnwindSafe,
) {
    simnet::check_cases(name, corpus.len() as u64, |case, rng| {
        let frame = corpus[case as usize].as_bytes();
        let check = |input: &[u8]| {
            let text = String::from_utf8_lossy(input);
            assert_eq!(decoder(&text), reference(&text), "input {text:?}");
        };
        check(frame);
        for at in 0..frame.len() {
            let mut mutant = frame.to_vec();
            mutant[at] ^= rng.gen_range(1u8..=255);
            check(&mutant);
            check(&frame[..at]);
        }
        for _ in 0..64 {
            let len = rng.gen_range(0..=frame.len());
            check(&rng.gen_bytes(len));
        }
    });
}

#[test]
fn xmlrpc_decoders_survive_mutations() {
    let calls = vec![
        MethodCall::new("append", vec!["x<y".to_owned(), String::new()]).to_xml(),
        MethodCall::new("tail", Vec::new()).to_xml(),
    ];
    let size = |c: &MethodCall| c.method.len() + c.params.iter().map(String::len).sum::<usize>();
    battery(
        "xmlrpc_call_mutations",
        &calls,
        |s| {
            let call = MethodCall::parse(s);
            assert!(call.as_ref().is_none_or(|c| size(c) <= s.len()));
            call
        },
        dom_method_call,
    );
    let responses = vec![
        MethodResponse::Value("entry 1\nentry 2".to_owned()).to_xml(),
        MethodResponse::Fault {
            code: 404,
            message: "no op".to_owned(),
        }
        .to_xml(),
    ];
    battery(
        "xmlrpc_response_mutations",
        &responses,
        MethodResponse::parse,
        dom_method_response,
    );
}

#[test]
fn description_decoder_survives_mutations() {
    let descriptions = vec![
        ServiceDescription {
            name: "Event <Log>".to_owned(),
            kind: "logger".to_owned(),
            operations: vec!["append".to_owned(), "tail".to_owned()],
        }
        .to_xml(),
        ServiceDescription {
            name: "w".to_owned(),
            kind: "weather".to_owned(),
            operations: Vec::new(),
        }
        .to_xml(),
    ];
    let size = |d: &ServiceDescription| {
        d.name.len() + d.kind.len() + d.operations.iter().map(String::len).sum::<usize>()
    };
    battery(
        "ws_description_mutations",
        &descriptions,
        |s| {
            let desc = ServiceDescription::parse(s);
            assert!(desc.as_ref().is_none_or(|d| size(d) <= s.len()));
            desc
        },
        dom_service_description,
    );
}

#[test]
fn deep_nesting_is_rejected_by_every_xml_reader() {
    for depth in [127, 128, 129, 100_000] {
        let nested = "<a>".repeat(depth) + &"</a>".repeat(depth);
        let call = format!("<methodCall><methodName>m</methodName><params><param><value>{nested}</value></param></params></methodCall>");
        assert_eq!(
            MethodCall::parse(&call),
            dom_method_call(&call),
            "depth {depth}"
        );
        let response = format!("<methodResponse><params>{nested}</params></methodResponse>");
        assert_eq!(
            MethodResponse::parse(&response),
            dom_method_response(&response),
            "depth {depth}"
        );
        let fault = format!("<methodResponse><fault>{nested}</fault></methodResponse>");
        assert_eq!(
            MethodResponse::parse(&fault),
            dom_method_response(&fault),
            "depth {depth}"
        );
        let description = format!("<service name='s' kind='k'>{nested}</service>");
        assert_eq!(
            ServiceDescription::parse(&description),
            dom_service_description(&description),
            "depth {depth}"
        );
    }
}

/// Printable ASCII, markup and entity characters included, with no
/// space at either end (a reader trims text).
fn value(rng: &mut SimRng) -> String {
    const CHARS: &str = "ab <>&\"'=;:/x1";
    let len = rng.gen_range(0usize..12);
    rng.gen_string(CHARS, len).trim().to_owned()
}

#[test]
fn typed_messages_round_trip() {
    simnet::check_cases("xmlrpc_typed_messages_round_trip", 256, |_, rng| {
        let params = (0..rng.gen_range(0usize..4)).map(|_| value(rng)).collect();
        let call = MethodCall::new("append", params);
        assert_eq!(MethodCall::parse(&call.to_xml()), Some(call));
        let response = MethodResponse::Value(value(rng));
        assert_eq!(MethodResponse::parse(&response.to_xml()), Some(response));
        let fault = MethodResponse::Fault {
            code: rng.gen_range(-500i32..500),
            message: value(rng),
        };
        assert_eq!(MethodResponse::parse(&fault.to_xml()), Some(fault));
        let description = ServiceDescription {
            name: value(rng),
            kind: value(rng),
            operations: (0..rng.gen_range(0usize..3)).map(|_| value(rng)).collect(),
        };
        assert_eq!(
            ServiceDescription::parse(&description.to_xml()),
            Some(description)
        );
    });
}
