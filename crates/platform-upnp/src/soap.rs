//! SOAP envelopes for UPnP control.
//!
//! UPnP action invocation is SOAP 1.1 over HTTP POST: a request envelope
//! naming the action and its in-arguments, answered by a response
//! envelope with out-arguments or a fault. The verbose XML marshaling
//! here is exactly the cost the paper measures in §5.2 (150 ms "consumed
//! in the UPnP domain (marshaling/unmarshaling XML messages...)").

use umiddle_usdl::{StartTag, XmlError, XmlReader, XmlWriter};

/// Everything an envelope writes before its body's first element.
const ENVELOPE_OPEN: &str =
    "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body>";
/// Everything an envelope writes after its body's element.
const ENVELOPE_CLOSE: &str = "</s:Body></s:Envelope>";

/// A SOAP action call: service type, action name, in-arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapCall {
    /// Service type segment the action belongs to.
    pub service: String,
    /// Action name.
    pub action: String,
    /// `(name, value)` in-arguments.
    pub args: Vec<(String, String)>,
}

impl SoapCall {
    /// Creates a call.
    pub fn new(service: &str, action: &str) -> SoapCall {
        SoapCall {
            service: service.to_owned(),
            action: action.to_owned(),
            args: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn with_arg(mut self, name: &str, value: impl Into<String>) -> SoapCall {
        self.args.push((name.to_owned(), value.into()));
        self
    }

    /// Serializes the request envelope, written field by field into one
    /// buffer.
    pub fn to_xml(&self) -> String {
        let args: usize = self
            .args
            .iter()
            .map(|(k, v)| 2 * k.len() + v.len() + 5)
            .sum();
        let mut w = XmlWriter::document(
            ENVELOPE_OPEN.len() + ENVELOPE_CLOSE.len() + 2 * self.action.len() + 64 + args,
        );
        w.markup(ENVELOPE_OPEN).markup("<u:").markup(&self.action);
        w.attr_parts("xmlns:u", &["urn:umiddle:service:", &self.service, ":1"]);
        if self.args.is_empty() {
            w.markup("/>");
        } else {
            w.markup(">");
            for (k, v) in &self.args {
                w.leaf(k, v);
            }
            w.markup("</u:").markup(&self.action).markup(">");
        }
        w.markup(ENVELOPE_CLOSE);
        w.finish()
    }

    /// Parses a request envelope, reading the fields in place: the
    /// action is the first element in the first `Body` of an
    /// `Envelope`, its service comes from its first `xmlns*` attribute,
    /// and each of its child elements is one argument (full name, direct
    /// text trimmed). The whole document must be well-formed.
    pub fn parse(xml: &str) -> Option<SoapCall> {
        read_envelope(xml, true, |r, action| {
            // urn:umiddle:service:<Service>:1
            let service = action
                .attrs()
                .find(|(k, _)| k.starts_with("xmlns"))
                .and_then(|(_, ns)| ns.split(':').nth(3).map(str::to_owned))
                .unwrap_or_default();
            Ok(SoapCall {
                service,
                action: action.local_name().to_owned(),
                args: read_args(r)?,
            })
        })
    }

    /// The `SOAPACTION` HTTP header value for this call.
    pub fn soap_action_header(&self) -> String {
        format!("\"urn:umiddle:service:{}:1#{}\"", self.service, self.action)
    }
}

/// The result of a SOAP call: out-arguments or a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoapResult {
    /// Successful invocation with out-arguments.
    Ok {
        /// The action that was invoked.
        action: String,
        /// `(name, value)` out-arguments.
        args: Vec<(String, String)>,
    },
    /// A UPnP error.
    Fault {
        /// UPnP error code (e.g. 401 invalid action).
        code: u32,
        /// Human-readable description.
        description: String,
    },
}

impl SoapResult {
    /// Serializes the response envelope, written field by field into one
    /// buffer.
    pub fn to_xml(&self) -> String {
        match self {
            SoapResult::Ok { action, args } => {
                let args_len: usize = args.iter().map(|(k, v)| 2 * k.len() + v.len() + 5).sum();
                let mut w = XmlWriter::document(
                    ENVELOPE_OPEN.len() + ENVELOPE_CLOSE.len() + 2 * action.len() + 24 + args_len,
                );
                w.markup(ENVELOPE_OPEN)
                    .markup("<u:")
                    .markup(action)
                    .markup("Response");
                if args.is_empty() {
                    w.markup("/>");
                } else {
                    w.markup(">");
                    for (k, v) in args {
                        w.leaf(k, v);
                    }
                    w.markup("</u:").markup(action).markup("Response>");
                }
                w.markup(ENVELOPE_CLOSE);
                w.finish()
            }
            SoapResult::Fault { code, description } => {
                let mut w = XmlWriter::document(
                    ENVELOPE_OPEN.len() + ENVELOPE_CLOSE.len() + 200 + description.len(),
                );
                w.markup(ENVELOPE_OPEN)
                    .markup("<s:Fault>")
                    .leaf("faultcode", "s:Client")
                    .leaf("faultstring", "UPnPError")
                    .markup("<detail><UPnPError>")
                    .leaf("errorCode", &code.to_string())
                    .leaf("errorDescription", description)
                    .markup("</UPnPError></detail></s:Fault>")
                    .markup(ENVELOPE_CLOSE);
                w.finish()
            }
        }
    }

    /// Parses a response envelope, reading the fields in place: the first
    /// element in the first `Body` is either the `<action>Response` whose
    /// child elements are the out-arguments, or a `Fault` whose first
    /// `UPnPError` descendant holds the first `errorCode` and
    /// `errorDescription`. The whole document must be well-formed.
    pub fn parse(xml: &str) -> Option<SoapResult> {
        read_envelope(xml, false, |r, first| {
            let name = first.local_name();
            if name == "Fault" {
                let error = r.read_descendant("UPnPError", |r, _| {
                    r.read_leaves(["errorCode", "errorDescription"])
                })?;
                return Ok(error.and_then(|[code, description]| {
                    let code = code?.parse().ok()?;
                    Some(SoapResult::Fault {
                        code,
                        description: description?,
                    })
                }));
            }
            Ok(Some(SoapResult::Ok {
                action: name.strip_suffix("Response").unwrap_or(name).to_owned(),
                args: read_args(r)?,
            }))
        })
        .flatten()
    }
}

/// Reads a whole envelope, handing the first element of its first
/// `Body` to `first`, which reads that element through its end tag.
/// `None` when the document is malformed, holds no such element, or
/// (with `envelope_root`) its root is not an `Envelope`.
fn read_envelope<'a, T>(
    xml: &'a str,
    envelope_root: bool,
    mut first: impl FnMut(&mut XmlReader<'a>, StartTag<'a>) -> Result<T, XmlError>,
) -> Option<T> {
    let mut r = XmlReader::new(xml);
    if r.root().ok()?.local_name() != "Envelope" && envelope_root {
        return None;
    }
    let (mut body, mut out) = (None, None);
    r.read_children(|r, tag| match tag.local_name() {
        "Body" => r.read_first(&mut body, |r| {
            r.read_children(|r, tag| r.read_first(&mut out, |r| first(r, tag)))
        }),
        _ => Ok(false),
    })
    .ok()?;
    out
}

/// Right after an action's start tag: each child element as `(full
/// name, direct text trimmed)`, reading through the action's end tag.
fn read_args(r: &mut XmlReader<'_>) -> Result<Vec<(String, String)>, XmlError> {
    let mut args = Vec::new();
    r.read_children(|r, tag| {
        args.push((tag.name().to_owned(), r.read_text()?));
        Ok(true)
    })?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trip_matches_paper_example() {
        // The paper's SetPower example: "1" switches the light on.
        let call = SoapCall::new("SwitchPower", "SetPower").with_arg("Power", "1");
        let xml = call.to_xml();
        assert!(xml.contains("SetPower") && xml.contains("Power"));
        let back = SoapCall::parse(&xml).unwrap();
        assert_eq!(back, call);
        assert_eq!(
            call.soap_action_header(),
            "\"urn:umiddle:service:SwitchPower:1#SetPower\""
        );
    }

    #[test]
    fn ok_result_round_trip() {
        let r = SoapResult::Ok {
            action: "GetTime".to_owned(),
            args: vec![("CurrentTime".to_owned(), "12:34".to_owned())],
        };
        assert_eq!(SoapResult::parse(&r.to_xml()).unwrap(), r);
    }

    #[test]
    fn fault_round_trip() {
        let f = SoapResult::Fault {
            code: 401,
            description: "Invalid Action".to_owned(),
        };
        assert_eq!(SoapResult::parse(&f.to_xml()).unwrap(), f);
    }

    #[test]
    fn non_soap_rejected() {
        assert!(SoapCall::parse("<root/>").is_none());
        assert!(SoapResult::parse("garbage").is_none());
    }
}
