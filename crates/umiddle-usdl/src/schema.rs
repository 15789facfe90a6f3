//! The USDL document model and its XML schema.
//!
//! USDL ("Universal Service Description Language", paper §3.4) describes
//! how a *generic* per-platform translator is parameterized for a concrete
//! device type: which ports the device's shape has, and how each port
//! binds to native actions, state variables, OBEX operations, RMI methods
//! and so on. "Therefore the implementation of translators can be generic,
//! assuming such a document-based runtime configuration."
//!
//! Document format:
//!
//! ```xml
//! <usdl device="urn:upnp:BinaryLight:1" platform="upnp" name="UPnP Light">
//!   <translator generic="upnp"/>
//!   <attr key="category" value="lighting"/>
//!   <port name="switch-on" kind="digital" direction="input" mime="text/plain">
//!     <bind action="SetPower" argument="Power" value="1"/>
//!   </port>
//!   <port name="light" kind="physical" direction="output"
//!         perception="visible" media="air"/>
//! </usdl>
//! ```
//!
//! `<bind>` attributes are platform-specific and surfaced as key/value
//! maps — the schema does not interpret them; the platform's generic
//! translator does.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use umiddle_core::{
    CoreError, CoreResult, Direction, PortKind, PortSpec, RuntimeId, Shape, TranslatorId,
    TranslatorProfile,
};

use crate::xml::{StartTag, XmlError, XmlReader, XmlWriter};

/// One platform-specific port binding: an opaque attribute map consumed
/// by the platform's generic translator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Binding(BTreeMap<String, String>);

impl Binding {
    /// Creates a binding from key/value pairs.
    pub fn from_pairs<I, K, V>(pairs: I) -> Binding
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        Binding(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Looks up a binding attribute.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// All attributes, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Returns `true` if the binding has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// One port declaration: its common-space spec plus native bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct UsdlPort {
    /// The port's common-space specification.
    pub spec: PortSpec,
    /// Native bindings (zero or more `<bind>` children).
    pub bindings: Vec<Binding>,
}

/// A parsed and validated USDL document.
#[derive(Debug, Clone, PartialEq)]
pub struct UsdlDocument {
    device_type: String,
    platform: String,
    name: String,
    generic: String,
    attrs: BTreeMap<String, String>,
    ports: Vec<UsdlPort>,
}

impl UsdlDocument {
    /// Parses and validates a USDL document, reading it in place in one
    /// pass. Names match by local name; a repeated attribute gives its
    /// first value, and the first `<translator>` counts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Invalid`] on XML syntax errors and on schema
    /// violations (missing required attributes, bad kinds/directions/MIME
    /// types, duplicate port names). A syntax error anywhere wins.
    pub fn parse(xml: &str) -> CoreResult<UsdlDocument> {
        let syntax = |e: XmlError| CoreError::Invalid(e.to_string());
        let mut r = XmlReader::new(xml);
        let root = r.root().map_err(syntax)?;
        // Keep the start tags (they borrow `xml`) and check the schema
        // once the whole document is read: a syntax error anywhere wins.
        let (mut translator, mut attr_tags, mut port_tags) = (None, Vec::new(), Vec::new());
        r.read_children(|r, tag| {
            match tag.local_name() {
                "translator" => translator = translator.or(Some(tag)),
                "attr" => attr_tags.push(tag),
                "port" => {
                    let bindings = r.read_list("bind", |r, bind| {
                        r.skip_element()?;
                        Ok(Binding::from_pairs(bind.attrs()))
                    })?;
                    port_tags.push((tag, bindings));
                    return Ok(true);
                }
                _ => {}
            }
            Ok(false)
        })
        .map_err(syntax)?;
        if root.local_name() != "usdl" {
            return Err(invalid(format!(
                "root element must be <usdl>, found <{}>",
                root.name()
            )));
        }
        let required = |key: &str| -> CoreResult<String> {
            root.attr(key)
                .map(Cow::into_owned)
                .ok_or_else(|| invalid(format!("<usdl> missing {key:?} attribute")))
        };
        let device_type = required("device")?;
        let platform = required("platform")?;
        let name = required("name")?;
        let generic = translator
            .and_then(|t| t.attr("generic"))
            .map_or_else(|| platform.clone(), Cow::into_owned);

        let mut attrs = BTreeMap::new();
        for a in attr_tags {
            let key = a.attr("key").ok_or_else(|| invalid("<attr> missing key"))?;
            let value = a
                .attr("value")
                .ok_or_else(|| invalid("<attr> missing value"))?;
            attrs.insert(key.into_owned(), value.into_owned());
        }

        let mut ports = Vec::with_capacity(port_tags.len());
        for (tag, bindings) in port_tags {
            let spec = port_spec(&tag)?;
            ports.push(UsdlPort { spec, bindings });
        }
        // Validate uniqueness via shape construction.
        Shape::from_ports(ports.iter().map(|p| p.spec.clone()).collect())?;
        Ok(UsdlDocument {
            device_type,
            platform,
            name,
            generic,
            attrs,
            ports,
        })
    }

    /// The native device type this document describes (a UPnP URN, a
    /// Bluetooth profile name, an RMI interface, …).
    pub fn device_type(&self) -> &str {
        &self.device_type
    }

    /// The platform the device lives on.
    pub fn platform(&self) -> &str {
        &self.platform
    }

    /// Default human-readable name for instantiated translators.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generic translator implementation to parameterize.
    pub fn generic(&self) -> &str {
        &self.generic
    }

    /// Document-level attributes copied onto instantiated profiles.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The declared ports.
    pub fn ports(&self) -> &[UsdlPort] {
        &self.ports
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&UsdlPort> {
        self.ports.iter().find(|p| p.spec.name == name)
    }

    /// The device's shape (all port specs).
    pub fn shape(&self) -> Shape {
        Shape::from_ports(self.ports.iter().map(|p| p.spec.clone()).collect())
            .expect("validated at parse time")
    }

    /// Builds a translator profile for a concrete device instance.
    /// `instance_name` overrides the document's default name (e.g. the
    /// device's friendly name from discovery); the id is a placeholder
    /// replaced at registration.
    pub fn profile(&self, instance_name: Option<&str>) -> TranslatorProfile {
        let mut b = TranslatorProfile::builder(
            TranslatorId::new(RuntimeId(u32::MAX), 0),
            instance_name.unwrap_or(&self.name),
        )
        .platform(self.platform.clone())
        .shape(self.shape())
        .attr("device-type", self.device_type.clone());
        for (k, v) in &self.attrs {
            b = b.attr(k.clone(), v.clone());
        }
        b.build()
    }

    /// Serializes back to USDL XML.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::document(256 + 160 * self.ports.len());
        w.markup("<usdl")
            .attr("device", &self.device_type)
            .attr("platform", &self.platform)
            .attr("name", &self.name);
        w.markup("><translator")
            .attr("generic", &self.generic)
            .markup("/>");
        for (k, v) in &self.attrs {
            w.markup("<attr")
                .attr("key", k)
                .attr("value", v)
                .markup("/>");
        }
        for p in &self.ports {
            let spec = &p.spec;
            w.markup("<port")
                .attr("name", &spec.name)
                .attr("direction", &spec.direction.to_string());
            match &spec.kind {
                PortKind::Digital(m) => w.attr("kind", "digital").attr("mime", &m.to_string()),
                PortKind::Physical { perception, media } => w
                    .attr("kind", "physical")
                    .attr("perception", &perception.to_string())
                    .attr("media", media),
            };
            w.markup(if p.bindings.is_empty() { "/>" } else { ">" });
            for b in &p.bindings {
                w.markup("<bind");
                for (k, v) in b.iter() {
                    w.attr(k, v);
                }
                w.markup("/>");
            }
            if !p.bindings.is_empty() {
                w.markup("</port>");
            }
        }
        w.markup("</usdl>");
        w.finish()
    }
}

impl fmt::Display for UsdlDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "usdl {:?} ({} on {}, {} ports)",
            self.name,
            self.device_type,
            self.platform,
            self.ports.len()
        )
    }
}

fn invalid(message: impl Into<String>) -> CoreError {
    CoreError::Invalid(message.into())
}

fn port_spec(p: &StartTag<'_>) -> CoreResult<PortSpec> {
    let name = p
        .attr("name")
        .ok_or_else(|| invalid("<port> missing name"))?;
    let need = |kind: &str, key: &str| {
        p.attr(key)
            .ok_or_else(|| invalid(format!("{kind}port {name:?} missing {key}")))
    };
    let direction: Direction = need("", "direction")?.parse()?;
    let kind = match p.attr("kind").as_deref() {
        Some("digital") => PortKind::Digital(need("digital ", "mime")?.parse()?),
        Some("physical") => PortKind::physical(
            need("physical ", "perception")?.parse()?,
            &need("physical ", "media")?,
        ),
        other => return Err(invalid(format!("port {name:?} has invalid kind {other:?}"))),
    };
    Ok(PortSpec {
        name: name.into_owned(),
        direction,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIGHT: &str = r#"
        <usdl device="urn:upnp:BinaryLight:1" platform="upnp" name="UPnP Light">
          <translator generic="upnp"/>
          <attr key="category" value="lighting"/>
          <port name="switch-on" kind="digital" direction="input" mime="text/plain">
            <bind action="SetPower" argument="Power" value="1"/>
          </port>
          <port name="switch-off" kind="digital" direction="input" mime="text/plain">
            <bind action="SetPower" argument="Power" value="0"/>
          </port>
          <port name="power-state" kind="digital" direction="output" mime="text/plain">
            <bind statevar="Power"/>
          </port>
          <port name="light" kind="physical" direction="output"
                perception="visible" media="air"/>
        </usdl>"#;

    #[test]
    fn parses_the_paper_light_example() {
        let doc = UsdlDocument::parse(LIGHT).unwrap();
        assert_eq!(doc.device_type(), "urn:upnp:BinaryLight:1");
        assert_eq!(doc.platform(), "upnp");
        assert_eq!(doc.generic(), "upnp");
        assert_eq!(doc.ports().len(), 4);
        // The paper's two digital input ports: "1" switches on, "0" off.
        let on = doc.port("switch-on").unwrap();
        assert_eq!(on.bindings[0].get("action"), Some("SetPower"));
        assert_eq!(on.bindings[0].get("value"), Some("1"));
        let off = doc.port("switch-off").unwrap();
        assert_eq!(off.bindings[0].get("value"), Some("0"));
        assert_eq!(doc.shape().ports().len(), 4);
    }

    #[test]
    fn profile_carries_attrs_and_shape() {
        let doc = UsdlDocument::parse(LIGHT).unwrap();
        let p = doc.profile(Some("Hallway Light"));
        assert_eq!(p.name(), "Hallway Light");
        assert_eq!(p.platform(), "upnp");
        assert_eq!(p.attr("category"), Some("lighting"));
        assert_eq!(p.attr("device-type"), Some("urn:upnp:BinaryLight:1"));
        assert_eq!(p.shape().ports().len(), 4);
        let default = doc.profile(None);
        assert_eq!(default.name(), "UPnP Light");
    }

    #[test]
    fn xml_round_trip() {
        let doc = UsdlDocument::parse(LIGHT).unwrap();
        let back = UsdlDocument::parse(&doc.to_xml()).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn schema_violations_rejected() {
        // Missing platform.
        assert!(UsdlDocument::parse(r#"<usdl device="d" name="n"/>"#).is_err());
        // Wrong root.
        assert!(UsdlDocument::parse(r#"<wsdl device="d" platform="p" name="n"/>"#).is_err());
        // Bad direction.
        assert!(UsdlDocument::parse(
            r#"<usdl device="d" platform="p" name="n">
                 <port name="x" kind="digital" direction="sideways" mime="a/b"/>
               </usdl>"#
        )
        .is_err());
        // Digital without mime.
        assert!(UsdlDocument::parse(
            r#"<usdl device="d" platform="p" name="n">
                 <port name="x" kind="digital" direction="input"/>
               </usdl>"#
        )
        .is_err());
        // Duplicate port names.
        assert!(UsdlDocument::parse(
            r#"<usdl device="d" platform="p" name="n">
                 <port name="x" kind="digital" direction="input" mime="a/b"/>
                 <port name="x" kind="digital" direction="output" mime="a/b"/>
               </usdl>"#
        )
        .is_err());
        // Physical without media.
        assert!(UsdlDocument::parse(
            r#"<usdl device="d" platform="p" name="n">
                 <port name="x" kind="physical" direction="output" perception="visible"/>
               </usdl>"#
        )
        .is_err());
    }

    #[test]
    fn generic_defaults_to_platform() {
        let doc =
            UsdlDocument::parse(r#"<usdl device="d" platform="motes" name="Mote"/>"#).unwrap();
        assert_eq!(doc.generic(), "motes");
    }
}
