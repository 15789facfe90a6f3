//! The typed USDL reader against a reference reader that answers the way
//! `UsdlDocument::parse` did when it read through the `Element` DOM.
//!
//! `typed_reader_matches_the_dom` generates documents with comments,
//! CDATA, processing instructions, entities, prefixes, repeated root
//! attributes, repeated `translator`s, repeated `attr` and `bind` keys,
//! missing or invalid attributes and duplicate ports. The mutation
//! battery then feeds the reader byte flips, truncations and random
//! bytes. On every input the two must agree: the same document, or the
//! same error with the same text.

use simnet::SimRng;
use umiddle_core::{CoreError, CoreResult, Direction, PerceptionType, PortKind, PortSpec, Shape};
use umiddle_usdl::{builtin, Binding, Element, UsdlDocument, UsdlPort};

/// What a document reads as, field by field.
#[derive(Debug, PartialEq)]
struct Usdl {
    device_type: String,
    platform: String,
    name: String,
    generic: String,
    attrs: Vec<(String, String)>,
    ports: Vec<UsdlPort>,
}

fn typed_usdl(xml: &str) -> CoreResult<Usdl> {
    UsdlDocument::parse(xml).map(|doc| Usdl {
        device_type: doc.device_type().to_owned(),
        platform: doc.platform().to_owned(),
        name: doc.name().to_owned(),
        generic: doc.generic().to_owned(),
        attrs: doc
            .attrs()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        ports: doc.ports().to_vec(),
    })
}

// --- the reference reader ---------------------------------------------

fn dom_usdl(xml: &str) -> CoreResult<Usdl> {
    let root = Element::parse(xml).map_err(|e| CoreError::Invalid(e.to_string()))?;
    if root.local_name() != "usdl" {
        return Err(CoreError::Invalid(format!(
            "root element must be <usdl>, found <{}>",
            root.name()
        )));
    }
    let required = |key: &str| -> CoreResult<String> {
        root.attr(key)
            .map(str::to_owned)
            .ok_or_else(|| CoreError::Invalid(format!("<usdl> missing {key:?} attribute")))
    };
    let device_type = required("device")?;
    let platform = required("platform")?;
    let name = required("name")?;
    let generic = root
        .child("translator")
        .and_then(|t| t.attr("generic"))
        .map(str::to_owned)
        .unwrap_or_else(|| platform.clone());

    let mut attrs = std::collections::BTreeMap::new();
    for a in root.children_named("attr") {
        let key = a
            .attr("key")
            .ok_or_else(|| CoreError::Invalid("<attr> missing key".to_owned()))?;
        let value = a
            .attr("value")
            .ok_or_else(|| CoreError::Invalid("<attr> missing value".to_owned()))?;
        attrs.insert(key.to_owned(), value.to_owned());
    }

    let mut ports = Vec::new();
    for p in root.children_named("port") {
        ports.push(dom_port(p)?);
    }
    Shape::from_ports(ports.iter().map(|p: &UsdlPort| p.spec.clone()).collect())?;
    Ok(Usdl {
        device_type,
        platform,
        name,
        generic,
        attrs: attrs.into_iter().collect(),
        ports,
    })
}

fn dom_port(p: &Element) -> CoreResult<UsdlPort> {
    let name = p
        .attr("name")
        .ok_or_else(|| CoreError::Invalid("<port> missing name".to_owned()))?;
    let direction: Direction = p
        .attr("direction")
        .ok_or_else(|| CoreError::Invalid(format!("port {name:?} missing direction")))?
        .parse()?;
    let kind = match p.attr("kind") {
        Some("digital") => {
            let mime = p
                .attr("mime")
                .ok_or_else(|| CoreError::Invalid(format!("digital port {name:?} missing mime")))?;
            PortKind::Digital(mime.parse()?)
        }
        Some("physical") => {
            let perception: PerceptionType = p
                .attr("perception")
                .ok_or_else(|| {
                    CoreError::Invalid(format!("physical port {name:?} missing perception"))
                })?
                .parse()?;
            let media = p.attr("media").ok_or_else(|| {
                CoreError::Invalid(format!("physical port {name:?} missing media"))
            })?;
            PortKind::physical(perception, media)
        }
        other => {
            return Err(CoreError::Invalid(format!(
                "port {name:?} has invalid kind {other:?}"
            )))
        }
    };
    let bindings = p
        .children_named("bind")
        .map(|b| Binding::from_pairs(b.attrs()))
        .collect();
    Ok(UsdlPort {
        spec: PortSpec {
            name: name.to_owned(),
            direction,
            kind,
        },
        bindings,
    })
}

// --- generated documents ----------------------------------------------

fn pick<'a>(rng: &mut SimRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn noise(rng: &mut SimRng, out: &mut String) {
    let bit = pick(
        rng,
        &[
            "<!-- note -->",
            "<?pi x?>",
            "\n  ",
            "stray &amp; text",
            "<![CDATA[ <raw> ]]>",
            "<extra k='v'><port name='hidden'/></extra>",
            "",
            "",
        ],
    );
    out.push_str(bit);
}

/// One of a few spellings of `name`: bare, or under a prefix.
fn spelled(rng: &mut SimRng, name: &str) -> String {
    if rng.gen_bool(0.75) {
        name.to_owned()
    } else {
        format!("u:{name}")
    }
}

/// ` key="value"` zero to two times (mostly once), the values escaped
/// or not.
fn attr(rng: &mut SimRng, out: &mut String, key: &str, values: &[&str]) {
    let times = match rng.gen_range(0..30) {
        0 => 0,
        1 | 2 => 2,
        _ => 1,
    };
    for _ in 0..times {
        let quote = if rng.gen_bool(0.5) { '"' } else { '\'' };
        out.push_str(&format!(" {key}={quote}{}{quote}", pick(rng, values)));
    }
}

fn port(rng: &mut SimRng, out: &mut String) {
    let tag = spelled(rng, "port");
    out.push_str(&format!("<{tag}"));
    // Mostly distinct names, now and then a duplicate; each other
    // attribute now and then invalid.
    let name = format!("{}{}", pick(rng, &["in", "p&amp;q"]), rng.gen_range(0..40));
    attr(rng, out, "name", &[&name, &name, &name, &name, "dup"]);
    let directions = ["input", "output", "input", "output", "input", "sideways"];
    attr(rng, out, "direction", &directions);
    let kinds = [
        "digital", "physical", "digital", "physical", "digital", "analog",
    ];
    match pick(rng, &kinds) {
        "digital" => {
            attr(rng, out, "kind", &["digital"]);
            let mimes = ["text/plain", "image/*", "a/b", "text/plain", "bad"];
            attr(rng, out, "mime", &mimes);
        }
        kind => {
            attr(rng, out, "kind", &[kind]);
            let perceptions = ["visible", "audible", "tangible", "visible", "smell"];
            attr(rng, out, "perception", &perceptions);
            attr(rng, out, "media", &["air", "Screen", "a&amp;b"]);
        }
    }
    if rng.gen_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.gen_range(0usize..4) {
        noise(rng, out);
        let name = pick(rng, &["bind", "bind", "bind", "binding"]);
        let tag = spelled(rng, name);
        out.push_str(&format!("<{tag}"));
        for _ in 0..rng.gen_range(0usize..4) {
            let key = pick(rng, &["action", "value", "statevar", "u:x"]);
            attr(rng, out, key, &["SetPower", "1", "&lt;&amp;&quot;", ""]);
        }
        if rng.gen_bool(0.8) {
            out.push_str("/>");
        } else {
            out.push_str(&format!("><!-- in --></{tag}>"));
        }
    }
    out.push_str(&format!("</{tag}>"));
}

fn usdl_doc(rng: &mut SimRng) -> String {
    let mut out = String::new();
    if rng.gen_bool(0.7) {
        out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>");
    }
    if rng.gen_bool(0.2) {
        out.push_str("<!-- prolog -->\n");
    }
    let root = if rng.gen_bool(0.95) {
        spelled(rng, "usdl")
    } else {
        "wsdl".to_owned()
    };
    out.push_str(&format!("<{root}"));
    attr(rng, &mut out, "device", &["urn:x:Light:1", "d&amp;1", "d2"]);
    attr(rng, &mut out, "platform", &["upnp", "motes"]);
    attr(rng, &mut out, "name", &["Light", "A &quot;B&quot;", ""]);
    out.push('>');
    for _ in 0..rng.gen_range(0usize..8) {
        noise(rng, &mut out);
        match rng.gen_range(0..4) {
            0 => {
                let tag = spelled(rng, "translator");
                out.push_str(&format!("<{tag}"));
                attr(
                    rng,
                    &mut out,
                    "generic",
                    &["upnp", "bluetooth-bip", "g&amp;"],
                );
                out.push_str("/>");
            }
            1 => {
                let tag = spelled(rng, "attr");
                out.push_str(&format!("<{tag}"));
                attr(rng, &mut out, "key", &["category", "room", "category"]);
                attr(rng, &mut out, "value", &["lighting", "den", "&lt;x&gt;"]);
                out.push_str("/>");
            }
            _ => port(rng, &mut out),
        }
    }
    noise(rng, &mut out);
    out.push_str(&format!("</{root}>"));
    if rng.gen_bool(0.1) {
        out.push_str("<!-- after -->");
    }
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
fn typed_reader_matches_the_dom() {
    simnet::check_cases("usdl_typed_reader_matches_the_dom", 1024, |_, rng| {
        let doc = {
            let doc = usdl_doc(rng);
            mutated(rng, doc)
        };
        assert_eq!(typed_usdl(&doc), dom_usdl(&doc), "{doc}");
    });
}

#[test]
fn generated_documents_are_mostly_accepted() {
    // The property above is only as good as the share of generated
    // documents that decode, and that reach each schema rule.
    let mut rng = SimRng::seed_from_u64(7);
    let (mut accepted, mut two_translators, mut invalid) = (0, 0, 0);
    for _ in 0..400 {
        let doc = usdl_doc(&mut rng);
        two_translators += usize::from(doc.matches("translator generic").count() > 1);
        match UsdlDocument::parse(&doc) {
            Ok(_) => accepted += 1,
            Err(CoreError::Invalid(m)) if !m.starts_with("xml parse error") => invalid += 1,
            Err(_) => {}
        }
    }
    assert!(
        accepted > 100 && invalid > 100 && two_translators > 20,
        "{accepted} accepted, {invalid} schema errors, {two_translators} with two translators"
    );
}

/// Feeds the reader and the reference each document, every single-byte
/// flip and truncation of it, and random byte strings.
#[test]
fn usdl_decoder_survives_mutations() {
    let corpus = [builtin::WS_LOGGER, builtin::UPNP_LIGHT];
    simnet::check_cases("usdl_mutations", corpus.len() as u64, |case, rng| {
        let frame = corpus[case as usize].as_bytes();
        let check = |input: &[u8]| {
            let text = String::from_utf8_lossy(input);
            assert_eq!(typed_usdl(&text), dom_usdl(&text), "input {text:?}");
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
fn deep_nesting_is_rejected_as_the_dom_rejects_it() {
    for depth in [127, 128, 129, 100_000] {
        let nested = "<a>".repeat(depth) + &"</a>".repeat(depth);
        let doc = format!("<usdl device='d' platform='p' name='n'>{nested}</usdl>");
        assert_eq!(typed_usdl(&doc), dom_usdl(&doc), "depth {depth}");
    }
}
