//! GENA — General Event Notification Architecture.
//!
//! UPnP eventing: a control point SUBSCRIBEs to a service; the device
//! NOTIFYs it with property-set XML whenever an evented state variable
//! changes. We model the subset the uMiddle mapper needs: subscribe with
//! a callback address, notify with `(name, value)` pairs, sequence keys.

use simnet::{Addr, NodeId};
use umiddle_usdl::{XmlReader, XmlWriter};

use crate::http::{HttpRequest, HttpResponse};

/// A GENA subscription request body/headers, carried over HTTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// The service type to subscribe to.
    pub service: String,
    /// Where NOTIFYs should be delivered (an HTTP listener).
    pub callback: Addr,
}

impl Subscribe {
    /// Builds the HTTP request.
    pub fn to_request(&self) -> HttpRequest {
        HttpRequest::new("SUBSCRIBE", format!("/event/{}", self.service)).with_header(
            "callback",
            format!("{}/{}", self.callback.node.index(), self.callback.port),
        )
    }

    /// Parses a SUBSCRIBE request.
    pub fn from_request(req: &HttpRequest) -> Option<Subscribe> {
        let service = req.path().strip_prefix("/event/")?.to_owned();
        let cb = req.header("callback")?;
        let (node, port) = cb.split_once('/')?;
        Some(Subscribe {
            service,
            callback: Addr::new(NodeId::from_index(node.parse().ok()?), port.parse().ok()?),
        })
    }

    /// The accepting response, carrying a subscription id.
    pub fn accept(sid: u32) -> HttpResponse {
        HttpResponse::new(200).with_header("sid", format!("uuid:sub-{sid}"))
    }
}

/// A GENA event notification: changed state variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notify {
    /// UDN of the device the event came from.
    pub device: String,
    /// Service the event belongs to.
    pub service: String,
    /// Event sequence number (0 is the initial full state push).
    pub seq: u32,
    /// Changed `(variable, value)` pairs.
    pub changes: Vec<(String, String)>,
}

impl Notify {
    /// Builds the HTTP NOTIFY request with a property-set body, written
    /// field by field into one buffer (the bytes an `Element` tree of
    /// it would write).
    pub fn to_request(&self) -> HttpRequest {
        let changes: usize = self
            .changes
            .iter()
            .map(|(k, v)| 2 * k.len() + v.len() + 30)
            .sum();
        let mut w = XmlWriter::document(PROPSET_OPEN.len() + 20 + changes);
        w.markup(PROPSET_OPEN);
        if self.changes.is_empty() {
            w.markup("/>");
        } else {
            w.markup(">");
            for (k, v) in &self.changes {
                w.markup("<e:property>").leaf(k, v).markup("</e:property>");
            }
            w.markup("</e:propertyset>");
        }
        HttpRequest::new("NOTIFY", format!("/notify/{}", self.service))
            .with_header("nts", "upnp:propchange")
            .with_header("seq", self.seq.to_string())
            .with_header("x-device", self.device.clone())
            .with_body(w.finish().into_bytes())
    }

    /// Parses a NOTIFY request, reading the property set in place: each
    /// child element of each `property` child of the root is one change
    /// (local name, direct text trimmed). The whole body must be
    /// well-formed.
    pub fn from_request(req: &HttpRequest) -> Option<Notify> {
        let service = req.path().strip_prefix("/notify/")?.to_owned();
        let seq = req.header("seq")?.parse().ok()?;
        let device = req.header("x-device")?.to_owned();
        let body = std::str::from_utf8(&req.body).ok()?;
        let mut r = XmlReader::new(body);
        r.root().ok()?;
        let mut changes = Vec::new();
        r.read_children(|r, property| {
            if property.local_name() != "property" {
                return Ok(false);
            }
            r.read_children(|r, var| {
                changes.push((var.local_name().to_owned(), r.read_text()?));
                Ok(true)
            })?;
            Ok(true)
        })
        .ok()?;
        Some(Notify {
            device,
            service,
            seq,
            changes,
        })
    }
}

/// A property set's start tag, up to where it closes or self-closes.
const PROPSET_OPEN: &str = "<e:propertyset xmlns:e=\"urn:schemas-upnp-org:event-1-0\"";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_round_trip() {
        let sub = Subscribe {
            service: "SwitchPower".to_owned(),
            callback: Addr::new(NodeId::from_index(2), 7070),
        };
        let req = sub.to_request();
        assert_eq!(req.method(), "SUBSCRIBE");
        assert_eq!(Subscribe::from_request(&req), Some(sub));
        assert_eq!(Subscribe::accept(7).header("sid"), Some("uuid:sub-7"));
    }

    #[test]
    fn notify_round_trip() {
        let n = Notify {
            device: "uuid:42".to_owned(),
            service: "SwitchPower".to_owned(),
            seq: 3,
            changes: vec![("Power".to_owned(), "1".to_owned())],
        };
        let req = n.to_request();
        assert_eq!(req.method(), "NOTIFY");
        assert_eq!(Notify::from_request(&req), Some(n));
    }

    #[test]
    fn wrong_paths_rejected() {
        let req = HttpRequest::new("NOTIFY", "/other");
        assert!(Notify::from_request(&req).is_none());
        let req = HttpRequest::new("SUBSCRIBE", "/event/x");
        assert!(Subscribe::from_request(&req).is_none(), "missing callback");
    }
}
