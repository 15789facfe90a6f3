//! Property-based tests: arbitrary USDL documents survive the
//! XML round trip, and shapes derived from them behave consistently.

use simnet::SimRng;
use umiddle_core::{Direction, PortKind};
use umiddle_usdl::{Element, UsdlDocument, XmlWriter};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_NUM_DASH: &str = "abcdefghijklmnopqrstuvwxyz0123456789-";
const ALNUM_SPACE: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";

fn arb_name(rng: &mut SimRng) -> String {
    let tail = rng.gen_range(0usize..=12);
    rng.gen_string(LOWER, 1) + &rng.gen_string(LOWER_NUM_DASH, tail)
}

fn arb_mime(rng: &mut SimRng) -> String {
    let a_len = rng.gen_range(2usize..=8);
    let b_len = rng.gen_range(1usize..=10);
    let a = rng.gen_string(LOWER, a_len);
    let b = rng.gen_string("abcdefghijklmnopqrstuvwxyz0123456789.+-", b_len);
    format!("{a}/{b}")
}

#[derive(Debug, Clone)]
struct PortGen {
    name: String,
    direction: &'static str,
    digital_mime: Option<String>,
    perception: &'static str,
    media: String,
    bindings: Vec<Vec<(String, String)>>,
}

fn arb_port(rng: &mut SimRng, idx: usize) -> PortGen {
    let name = arb_name(rng);
    let direction = if rng.gen_bool(0.5) { "input" } else { "output" };
    let digital_mime = if rng.gen_bool(0.5) {
        Some(arb_mime(rng))
    } else {
        None
    };
    let perception = match rng.gen_range(0u8..3) {
        0 => "visible",
        1 => "audible",
        _ => "tangible",
    };
    let media_len = rng.gen_range(1usize..=8);
    let media = rng.gen_string(LOWER, media_len);
    let n_bindings = rng.gen_range(0usize..3);
    let bindings = (0..n_bindings)
        .map(|_| {
            let n_pairs = rng.gen_range(1usize..3);
            (0..n_pairs)
                .map(|_| {
                    let klen = rng.gen_range(1usize..=6);
                    let vlen = rng.gen_range(0usize..=12);
                    let k = rng.gen_string(LOWER, klen);
                    let v = rng.gen_string(ALNUM_SPACE, vlen);
                    (k, v)
                })
                .collect()
        })
        .collect();
    PortGen {
        // Guarantee unique port names by suffixing the index.
        name: format!("{name}-{idx}"),
        direction,
        digital_mime,
        perception,
        media,
        bindings,
    }
}

fn build_xml(device: &str, platform: &str, name: &str, ports: &[PortGen]) -> String {
    let mut w = XmlWriter::document(0);
    w.markup("<usdl")
        .attr("device", device)
        .attr("platform", platform)
        .attr("name", name)
        .markup(">");
    for p in ports {
        w.markup("<port")
            .attr("name", &p.name)
            .attr("direction", p.direction);
        match &p.digital_mime {
            Some(m) => {
                w.attr("kind", "digital").attr("mime", m);
            }
            None => {
                w.attr("kind", "physical")
                    .attr("perception", p.perception)
                    .attr("media", &p.media);
            }
        }
        w.markup(">");
        for b in &p.bindings {
            w.markup("<bind");
            // Deduplicate binding keys (attribute keys must be unique).
            let mut seen = std::collections::BTreeSet::new();
            for (k, v) in b {
                if seen.insert(k.clone()) {
                    w.attr(k, v);
                }
            }
            w.markup("/>");
        }
        w.markup("</port>");
    }
    w.markup("</usdl>");
    w.finish()
}

/// Parse → serialize → parse is the identity on USDL documents.
#[test]
fn usdl_round_trip() {
    simnet::check_cases("usdl_round_trip", 64, |_, rng| {
        let dev_len = rng.gen_range(1usize..=24);
        let device = rng.gen_string("abcdefghijklmnopqrstuvwxyz:.-", dev_len);
        let plat_len = rng.gen_range(2usize..=12);
        let platform = rng.gen_string(LOWER, plat_len);
        let name_len = rng.gen_range(1usize..=24);
        let name = rng.gen_string(ALNUM_SPACE, name_len);
        let n_ports = rng.gen_range(0usize..6);
        let ports: Vec<PortGen> = (0..n_ports).map(|i| arb_port(rng, i)).collect();

        let xml = build_xml(&device, &platform, &name, &ports);
        let doc = UsdlDocument::parse(&xml).unwrap();
        assert_eq!(doc.device_type(), device.as_str());
        assert_eq!(doc.platform(), platform.as_str());
        assert_eq!(doc.ports().len(), ports.len());
        let again = UsdlDocument::parse(&doc.to_xml()).unwrap();
        assert_eq!(&doc, &again);

        // The derived shape matches the declarations.
        let shape = doc.shape();
        for p in &ports {
            let spec = shape.port(&p.name).expect("port present");
            assert_eq!(
                spec.direction,
                if p.direction == "input" {
                    Direction::Input
                } else {
                    Direction::Output
                }
            );
            match (&p.digital_mime, &spec.kind) {
                (Some(m), PortKind::Digital(mime)) => {
                    assert_eq!(&mime.to_string(), m);
                }
                (None, PortKind::Physical { media, .. }) => {
                    assert_eq!(media, &p.media);
                }
                other => panic!("kind mismatch: {other:?}"),
            }
        }

        // Profiles built from the document carry the shape and identity.
        let profile = doc.profile(None);
        assert_eq!(profile.name(), doc.name());
        assert_eq!(profile.shape(), &shape);
        assert_eq!(profile.attr("device-type"), Some(device.as_str()));
    });
}

/// The XML parser and USDL validator never panic on arbitrary text.
#[test]
fn usdl_parse_never_panics() {
    simnet::check_cases("usdl_parse_never_panics", 64, |_, rng| {
        let len = rng.gen_range(0usize..300);
        let s = String::from_utf8_lossy(&rng.gen_bytes(len)).into_owned();
        let _ = UsdlDocument::parse(&s);
        let _ = Element::parse(&s);
    });
}
