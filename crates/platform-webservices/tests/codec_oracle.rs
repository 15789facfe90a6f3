//! The typed XML-RPC readers against reference readers that answer the
//! way they did when they read through the `Element` DOM, on generated
//! documents (comments, CDATA, processing instructions, entities,
//! whitespace, prefixes, extra or repeated children, self-closing
//! leaves) and on mutants of real messages: byte flips, truncations,
//! random bytes and deep nesting. No reader may panic, each must accept
//! or reject exactly as its reference does, and what it decodes is never
//! larger than its input. The USDL decoder, which reads through the DOM,
//! gets the same mutants and must not panic.

use platform_webservices::{MethodCall, MethodResponse};
use simnet::SimRng;
use umiddle_usdl::{Element, UsdlDocument};

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
                    leaf(rng, "faultCode", out);
                    leaf(rng, "faultString", out);
                    out.push_str("</fault>");
                }
                _ => params(rng, out),
            }
        }
    })
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
    });
}

#[test]
fn generated_documents_are_mostly_accepted() {
    let mut rng = SimRng::seed_from_u64(5);
    let (mut calls, mut responses) = (0, 0);
    for _ in 0..400 {
        calls += usize::from(MethodCall::parse(&call_doc(&mut rng)).is_some());
        responses += usize::from(MethodResponse::parse(&response_doc(&mut rng)).is_some());
    }
    assert!(
        calls > 150 && responses > 150,
        "{calls} calls, {responses} responses"
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
fn usdl_decoder_survives_mutations() {
    let corpus = vec![
        umiddle_usdl::builtin::WS_LOGGER.to_owned(),
        umiddle_usdl::builtin::UPNP_LIGHT.to_owned(),
    ];
    // USDL reads through the DOM: a document it accepts is well-formed.
    battery(
        "usdl_mutations",
        &corpus,
        |s| UsdlDocument::parse(s).is_ok() && Element::parse(s).is_err(),
        |_| false,
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
    });
}
