//! The typed SOAP, GENA, SSDP and HTTP readers against reference
//! readers that answer the way these codecs did when they read through
//! the `Element` DOM and a `BTreeMap` of headers.
//!
//! `typed_readers_match_the_dom` generates documents with comments,
//! CDATA, processing instructions, entities, whitespace, prefixes, extra
//! or repeated children and self-closing leaves. The mutation battery
//! then feeds every decoder byte flips, truncations, random bytes,
//! hostile `Content-Length` values and deep nesting: no decoder may
//! panic, each must accept or reject exactly as its reference does, and
//! what it decodes is never larger than its input.

use std::collections::BTreeMap;

use platform_upnp::{
    HttpAccumulator, HttpMessage, HttpRequest, Notify, SoapCall, SoapResult, SsdpMessage,
};
use simnet::{Addr, NodeId, SimRng};
use umiddle_usdl::Element;

// --- reference readers ------------------------------------------------

fn dom_args(action: &Element) -> Vec<(String, String)> {
    action
        .children()
        .map(|c| (c.name().to_owned(), c.text()))
        .collect()
}

fn dom_soap_call(xml: &str) -> Option<SoapCall> {
    let root = Element::parse(xml).ok()?;
    if root.local_name() != "Envelope" {
        return None;
    }
    let action = root.child("Body")?.children().next()?;
    let ns = action
        .attrs()
        .find(|(k, _)| k.starts_with("xmlns"))
        .map(|(_, v)| v)
        .unwrap_or_default();
    Some(SoapCall {
        service: ns.split(':').nth(3).unwrap_or_default().to_owned(),
        action: action.local_name().to_owned(),
        args: dom_args(action),
    })
}

fn dom_soap_result(xml: &str) -> Option<SoapResult> {
    let root = Element::parse(xml).ok()?;
    let first = root.child("Body")?.children().next()?;
    if first.local_name() == "Fault" {
        let err = first.find("UPnPError")?;
        return Some(SoapResult::Fault {
            code: err.child("errorCode")?.text().parse().ok()?,
            description: err.child("errorDescription")?.text(),
        });
    }
    let name = first.local_name();
    Some(SoapResult::Ok {
        action: name.strip_suffix("Response").unwrap_or(name).to_owned(),
        args: dom_args(first),
    })
}

fn dom_notify_changes(body: &str) -> Option<Vec<(String, String)>> {
    let root = Element::parse(body).ok()?;
    Some(
        root.children_named("property")
            .flat_map(|p| p.children())
            .map(|v| (v.local_name().to_owned(), v.text()))
            .collect(),
    )
}

/// A head the way the accumulator read it through a `BTreeMap`: the
/// start line and the headers, keys lowercased, the last value winning.
fn map_head(head: &str) -> (String, BTreeMap<String, String>) {
    let mut lines = head.split("\r\n");
    let first = lines.next().unwrap_or_default().to_owned();
    let mut headers = BTreeMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
        }
    }
    (first, headers)
}

/// What one accumulator read of `bytes` gives, as comparable text: the
/// reference reads through `map_head`, the codec through its accessors.
fn http_reference(bytes: &[u8]) -> Option<Result<String, String>> {
    let end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let (first, headers) = map_head(&String::from_utf8_lossy(&bytes[..end]));
    let length: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let Some(total) = (end + 4)
        .checked_add(length)
        .filter(|&t| t <= isize::MAX as usize)
    else {
        return Some(Err(format!("impossible content-length {length}")));
    };
    if bytes.len() < total {
        return None;
    }
    let body = &bytes[end + 4..total];
    let parts: Vec<&str> = first.splitn(3, ' ').collect();
    let header_text: String = headers.iter().map(|(k, v)| format!("{k}={v};")).collect();
    Some(if first.starts_with("HTTP/") {
        if parts.len() < 2 {
            Err(format!("bad status line {first:?}"))
        } else {
            match parts[1].parse::<u16>() {
                Ok(status) => Ok(format!(
                    "response {status} {:?} {header_text} {body:?}",
                    parts.get(2).unwrap_or(&"")
                )),
                Err(_) => Err(format!("bad status code in {first:?}")),
            }
        }
    } else if parts.len() < 3 {
        Err(format!("bad request line {first:?}"))
    } else {
        Ok(format!(
            "request {:?} {:?} {header_text} {body:?}",
            parts[0], parts[1]
        ))
    })
}

fn http_codec(bytes: &[u8]) -> Option<Result<String, String>> {
    let mut acc = HttpAccumulator::new();
    acc.push(bytes);
    let msg = acc.take_message()?;
    // The lookups below must agree with every key the reference saw.
    let end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let (_, headers) = map_head(&String::from_utf8_lossy(&bytes[..end]));
    let text = |lookup: &dyn Fn(&str) -> Option<String>| -> String {
        headers
            .keys()
            .map(|k| {
                let v = lookup(k).expect("a key the head holds");
                assert_eq!(lookup(&k.to_ascii_uppercase()), Some(v.clone()));
                format!("{k}={v};")
            })
            .collect()
    };
    Some(msg.map(|m| match m {
        HttpMessage::Request(r) => {
            assert!(r.body.len() <= bytes.len());
            format!(
                "request {:?} {:?} {} {:?}",
                r.method(),
                r.path(),
                text(&|k| r.header(k).map(str::to_owned)),
                &r.body[..]
            )
        }
        HttpMessage::Response(r) => {
            assert!(r.body.len() <= bytes.len());
            format!(
                "response {} {:?} {} {:?}",
                r.status,
                r.reason(),
                text(&|k| r.header(k).map(str::to_owned)),
                &r.body[..]
            )
        }
    }))
}

fn ssdp_reference(bytes: &[u8]) -> Option<SsdpMessage> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.split("\r\n");
    let first = lines.next()?;
    let mut headers: BTreeMap<String, String> = BTreeMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_uppercase(), v.trim().to_owned());
        }
    }
    let addr = |s: &str| -> Option<Addr> {
        let (node, port) = s.split_once('/')?;
        Some(Addr::new(
            NodeId::from_index(node.parse().ok()?),
            port.parse().ok()?,
        ))
    };
    let max_age = headers
        .get("CACHE-CONTROL")
        .and_then(|v| v.strip_prefix("max-age="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1800);
    if first.starts_with("NOTIFY") {
        match headers.get("NTS").map(String::as_str) {
            Some("ssdp:alive") => Some(SsdpMessage::Alive {
                usn: headers.get("USN")?.clone(),
                device_type: headers.get("NT")?.clone(),
                location: addr(headers.get("LOCATION")?)?,
                max_age,
            }),
            Some("ssdp:byebye") => Some(SsdpMessage::ByeBye {
                usn: headers.get("USN")?.clone(),
                device_type: headers.get("NT")?.clone(),
            }),
            _ => None,
        }
    } else if first.starts_with("M-SEARCH") {
        Some(SsdpMessage::MSearch {
            st: headers.get("ST")?.clone(),
            reply_to: addr(headers.get("REPLY-TO")?)?,
        })
    } else if first.starts_with("HTTP/1.1 200") {
        Some(SsdpMessage::SearchResponse {
            usn: headers.get("USN")?.clone(),
            device_type: headers.get("ST")?.clone(),
            location: addr(headers.get("LOCATION")?)?,
            max_age,
        })
    } else {
        None
    }
}

fn notify_codec(body: &str) -> Option<Vec<(String, String)>> {
    let req = HttpRequest::new("NOTIFY", "/notify/S")
        .with_header("seq", "1")
        .with_header("x-device", "uuid:d")
        .with_body(body.as_bytes().to_vec());
    Notify::from_request(&req).map(|n| n.changes)
}

// --- generated documents ----------------------------------------------

const TEXTS: &[&str] = &[
    "1",
    " 0 ",
    "",
    "12:34",
    "a &lt;b&gt; &amp; c",
    "&#x41;&#66;",
    "\n  x\n",
    "<![CDATA[ <raw> & ]]>",
    "<![CDATA[]]>",
    "x<!-- split -->y",
    "p<?pi here?>q",
    "  <inner>dropped</inner> kept ",
    "&quot;&apos;",
];

/// One of a few spellings of `name`: bare, or under some prefix.
fn spelled(rng: &mut SimRng, name: &str) -> String {
    match rng.gen_range(0..4) {
        0 => name.to_owned(),
        1 => format!("s:{name}"),
        2 => format!("soap:{name}"),
        _ => format!("u:{name}"),
    }
}

fn noise(rng: &mut SimRng, out: &mut String) {
    match rng.gen_range(0..6) {
        0 => out.push_str("<!-- note -->"),
        1 => out.push_str("<?pi x?>"),
        2 => out.push_str("\n  "),
        3 => out.push_str("stray text"),
        _ => {}
    }
}

/// A leaf element: text, self-closing, or text split by markup.
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

fn prolog(rng: &mut SimRng, out: &mut String) {
    if rng.gen_bool(0.7) {
        out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
    }
    if rng.gen_bool(0.2) {
        out.push_str("<!-- prolog -->\n");
    }
}

/// An envelope around `inner` (the body's content), with optional
/// headers, repeated bodies and noise.
fn envelope(rng: &mut SimRng, inner: &str) -> String {
    let mut out = String::new();
    prolog(rng, &mut out);
    let root = if rng.gen_bool(0.9) {
        spelled(rng, "Envelope")
    } else {
        "Other".to_owned()
    };
    out.push_str(&format!("<{root} xmlns:s=\"urn:env\">"));
    noise(rng, &mut out);
    if rng.gen_bool(0.2) {
        out.push_str("<s:Header><Body>decoy</Body></s:Header>");
    }
    let body = spelled(rng, "Body");
    out.push_str(&format!("<{body}>"));
    noise(rng, &mut out);
    out.push_str(inner);
    noise(rng, &mut out);
    out.push_str(&format!("</{body}>"));
    if rng.gen_bool(0.15) {
        out.push_str("<s:Body><u:Second/></s:Body>");
    }
    out.push_str(&format!("</{root}>"));
    if rng.gen_bool(0.1) {
        out.push_str("<!-- after -->");
    }
    out
}

fn args(rng: &mut SimRng, out: &mut String) {
    for _ in 0..rng.gen_range(0usize..4) {
        let name = ["Power", "u:Power", "NewTime", "Value"][rng.gen_range(0..4)];
        leaf(rng, name, out);
        noise(rng, out);
    }
}

fn soap_call_doc(rng: &mut SimRng) -> String {
    let mut inner = String::new();
    if rng.gen_bool(0.1) {
        return envelope(rng, "");
    }
    let action = spelled(rng, "SetPower");
    let attrs = match rng.gen_range(0..5) {
        0 => " xmlns:u=\"urn:umiddle:service:SwitchPower:1\"",
        1 => " id='7' xmlns:u=\"urn:umiddle:service:Sw&amp;itch:1\"",
        2 => " xmlns=\"urn:x\" xmlns:u=\"urn:umiddle:service:Other:1\"",
        3 => " xmlns:u=\"short\"",
        _ => "",
    };
    if rng.gen_bool(0.15) {
        inner.push_str(&format!("<{action}{attrs}/>"));
    } else {
        inner.push_str(&format!("<{action}{attrs}>"));
        args(rng, &mut inner);
        inner.push_str(&format!("</{action}>"));
    }
    if rng.gen_bool(0.2) {
        inner.push_str("<u:Extra>ignored</u:Extra>");
    }
    envelope(rng, &inner)
}

fn soap_result_doc(rng: &mut SimRng) -> String {
    let mut inner = String::new();
    match rng.gen_range(0..6) {
        0 => {
            inner.push_str("<s:Fault><faultcode>s:Client</faultcode><detail><UPnPError>");
            leaf(rng, "errorCode", &mut inner);
            leaf(rng, "errorDescription", &mut inner);
            inner.push_str("</UPnPError></detail></s:Fault>");
        }
        1 => inner.push_str("<s:Fault><UPnPError><errorCode>x</errorCode></UPnPError></s:Fault>"),
        _ => {
            let name = ["u:GetTimeResponse", "GetTime", "u:SetPowerResponse"][rng.gen_range(0..3)];
            inner.push_str(&format!("<{name}>"));
            args(rng, &mut inner);
            inner.push_str(&format!("</{name}>"));
        }
    }
    envelope(rng, &inner)
}

fn propset_doc(rng: &mut SimRng) -> String {
    let mut out = String::new();
    prolog(rng, &mut out);
    out.push_str("<e:propertyset xmlns:e=\"urn:schemas-upnp-org:event-1-0\">");
    for _ in 0..rng.gen_range(0usize..4) {
        noise(rng, &mut out);
        let prop = ["e:property", "property", "other"][rng.gen_range(0..3)];
        out.push_str(&format!("<{prop}>"));
        for _ in 0..rng.gen_range(0usize..3) {
            let var = ["Power", "e:Time", "Volume"][rng.gen_range(0..3)];
            leaf(rng, var, &mut out);
        }
        out.push_str(&format!("</{prop}>"));
    }
    out.push_str("</e:propertyset>");
    out
}

/// A generated document, or a byte-level mutant of one.
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
    simnet::check_cases("upnp_typed_readers_match_the_dom", 512, |_, rng| {
        let call = {
            let doc = soap_call_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(SoapCall::parse(&call), dom_soap_call(&call), "{call}");
        let result = {
            let doc = soap_result_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(
            SoapResult::parse(&result),
            dom_soap_result(&result),
            "{result}"
        );
        let props = {
            let doc = propset_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(notify_codec(&props), dom_notify_changes(&props), "{props}");
    });
}

#[test]
fn generated_documents_are_mostly_accepted() {
    // The property above is only as good as the share of generated
    // documents that decode: keep the generators producing real
    // messages, not just rejects.
    let mut rng = SimRng::seed_from_u64(11);
    let (mut calls, mut results) = (0, 0);
    for _ in 0..400 {
        calls += usize::from(SoapCall::parse(&soap_call_doc(&mut rng)).is_some());
        results += usize::from(SoapResult::parse(&soap_result_doc(&mut rng)).is_some());
    }
    assert!(
        calls > 200 && results > 200,
        "{calls} calls, {results} results"
    );
}

// --- the mutation battery ---------------------------------------------

/// Feeds `decoder` and `reference` the frame, every single-byte flip and
/// truncation of it, and random byte strings; they must agree on each.
fn battery<T: PartialEq + std::fmt::Debug>(
    name: &str,
    corpus: &[Vec<u8>],
    decoder: impl Fn(&[u8]) -> T + std::panic::RefUnwindSafe,
    reference: impl Fn(&[u8]) -> T + std::panic::RefUnwindSafe,
) {
    simnet::check_cases(name, corpus.len() as u64, |case, rng| {
        let frame = &corpus[case as usize];
        let check = |input: &[u8]| {
            assert_eq!(
                decoder(input),
                reference(input),
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        };
        check(frame);
        for at in 0..frame.len() {
            let mut mutant = frame.clone();
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

fn text_of(bytes: &[u8]) -> Option<&str> {
    std::str::from_utf8(bytes).ok()
}

fn soap_corpus() -> Vec<Vec<u8>> {
    vec![
        SoapCall::new("SwitchPower", "SetPower")
            .with_arg("Power", "1")
            .to_xml()
            .into_bytes(),
        SoapCall::new("Clock", "Tick").to_xml().into_bytes(),
        SoapResult::Ok {
            action: "GetTime".to_owned(),
            args: vec![("CurrentTime".to_owned(), "1&2".to_owned())],
        }
        .to_xml()
        .into_bytes(),
        SoapResult::Fault {
            code: 401,
            description: "Invalid".to_owned(),
        }
        .to_xml()
        .into_bytes(),
    ]
}

#[test]
fn soap_decoders_survive_mutations() {
    let size = |call: &SoapCall| {
        call.service.len()
            + call.action.len()
            + call
                .args
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>()
    };
    battery(
        "soap_call_mutations",
        &soap_corpus(),
        |b| {
            let call = text_of(b).and_then(SoapCall::parse);
            assert!(call.as_ref().is_none_or(|c| size(c) <= b.len()));
            call
        },
        |b| text_of(b).and_then(dom_soap_call),
    );
    battery(
        "soap_result_mutations",
        &soap_corpus(),
        |b| text_of(b).and_then(SoapResult::parse),
        |b| text_of(b).and_then(dom_soap_result),
    );
}

#[test]
fn gena_decoder_survives_mutations() {
    let corpus = vec![Notify {
        device: "uuid:1".to_owned(),
        service: "SwitchPower".to_owned(),
        seq: 2,
        changes: vec![
            ("Power".to_owned(), "1".to_owned()),
            ("Note".to_owned(), "&".to_owned()),
        ],
    }
    .to_request()
    .body
    .to_vec()];
    battery(
        "gena_notify_mutations",
        &corpus,
        |b| text_of(b).and_then(notify_codec),
        |b| text_of(b).and_then(dom_notify_changes),
    );
}

#[test]
fn ssdp_decoder_survives_mutations() {
    let addr = Addr::new(NodeId::from_index(3), 5000);
    let corpus: Vec<Vec<u8>> = [
        SsdpMessage::Alive {
            usn: "uuid:1".to_owned(),
            device_type: "urn:x:Clock:1".to_owned(),
            location: addr,
            max_age: 90,
        },
        SsdpMessage::ByeBye {
            usn: "uuid:1".to_owned(),
            device_type: "urn:x:Clock:1".to_owned(),
        },
        SsdpMessage::MSearch {
            st: "ssdp:all".to_owned(),
            reply_to: addr,
        },
        SsdpMessage::SearchResponse {
            usn: "uuid:2".to_owned(),
            device_type: "urn:x:Light:1".to_owned(),
            location: addr,
            max_age: 120,
        },
    ]
    .iter()
    .map(SsdpMessage::to_bytes)
    .collect();
    battery(
        "ssdp_mutations",
        &corpus,
        SsdpMessage::parse,
        ssdp_reference,
    );
}

#[test]
fn http_decoder_survives_mutations() {
    let corpus: Vec<Vec<u8>> = vec![
        SoapCall::new("SwitchPower", "SetPower")
            .with_arg("Power", "1")
            .to_xml(),
        String::new(),
    ]
    .into_iter()
    .map(|body| {
        HttpRequest::new("POST", "/control")
            .with_header("SOAPAction", "\"urn:x#SetPower\"")
            .with_body(body.into_bytes())
            .to_bytes()
            .to_vec()
    })
    .chain([
        platform_upnp::HttpResponse::xml("<r/>".to_owned()).to_bytes().to_vec(),
        b"HTTP/1.0 200 OK\r\nA: 1\r\na: 2\r\n X-Odd : v \r\nno colon\r\ncontent-length: 3\r\n\r\nabc".to_vec(),
    ])
    .collect();
    battery("http_mutations", &corpus, http_codec, http_reference);

    // Hostile lengths: far past the bytes, past `isize`, past `usize`,
    // negative, signed and padded.
    for length in [
        "18446744073709551615",
        "18446744073709551616",
        "9223372036854775807",
        "9223372036854775808",
        "4294967296",
        "-1",
        "+3",
        " 3 ",
        "3abc",
        "00000000000000000000003",
    ] {
        let bytes = format!("POST /x HTTP/1.0\r\ncontent-length: {length}\r\n\r\nabc").into_bytes();
        assert_eq!(
            http_codec(&bytes),
            http_reference(&bytes),
            "content-length {length}"
        );
    }
}

#[test]
fn deep_nesting_is_rejected_by_every_xml_reader() {
    for depth in [127, 128, 129, 100_000] {
        let nested = "<a>".repeat(depth) + &"</a>".repeat(depth);
        let call = format!("<s:Envelope><s:Body><u:X>{nested}</u:X></s:Body></s:Envelope>");
        assert_eq!(
            SoapCall::parse(&call),
            dom_soap_call(&call),
            "depth {depth}"
        );
        let result = format!("<s:Envelope><s:Body>{nested}</s:Body></s:Envelope>");
        assert_eq!(
            SoapResult::parse(&result),
            dom_soap_result(&result),
            "depth {depth}"
        );
        let props = format!("<e:propertyset><e:property>{nested}</e:property></e:propertyset>");
        assert_eq!(
            notify_codec(&props),
            dom_notify_changes(&props),
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
    simnet::check_cases("upnp_typed_messages_round_trip", 256, |_, rng| {
        let names = ["Power", "NewTime", "u:Value", "A.b-c_d"];
        let pairs: Vec<(String, String)> = (0..rng.gen_range(0usize..4))
            .map(|_| (names[rng.gen_range(0..names.len())].to_owned(), value(rng)))
            .collect();
        let mut call = SoapCall::new("Switch&Power", "SetPower");
        for (k, v) in &pairs {
            call = call.with_arg(k, v.clone());
        }
        assert_eq!(SoapCall::parse(&call.to_xml()), Some(call));
        let ok = SoapResult::Ok {
            action: "GetTime".to_owned(),
            args: pairs.clone(),
        };
        assert_eq!(SoapResult::parse(&ok.to_xml()), Some(ok));
        let fault = SoapResult::Fault {
            code: rng.gen_range(0u32..1000),
            description: value(rng),
        };
        assert_eq!(SoapResult::parse(&fault.to_xml()), Some(fault));
        let notify = Notify {
            device: "uuid:d".to_owned(),
            service: "S".to_owned(),
            seq: 1,
            changes: pairs
                .into_iter()
                .map(|(k, v)| (k.rsplit(':').next().unwrap_or_default().to_owned(), v))
                .collect(),
        };
        let mut acc = HttpAccumulator::new();
        acc.push(&notify.to_request().to_bytes());
        let Some(Ok(HttpMessage::Request(req))) = acc.take_message() else {
            panic!("a NOTIFY reads back");
        };
        assert_eq!(Notify::from_request(&req), Some(notify));
    });
}
