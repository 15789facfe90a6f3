//! SSDP — Simple Service Discovery Protocol.
//!
//! UPnP devices announce themselves with multicast `NOTIFY ssdp:alive`
//! messages, say goodbye with `ssdp:byebye`, and answer multicast
//! `M-SEARCH` queries with unicast responses. Messages are HTTP-like
//! header blocks over UDP; this module provides the codec.

use simnet::{Addr, NodeId};

use crate::http::{header_line, split_start_line};

/// The SSDP multicast group port used in the simulation (stands in for
/// 239.255.255.250:1900).
pub const SSDP_GROUP: u16 = 1900;

/// An SSDP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsdpMessage {
    /// A device announces its presence (multicast, periodic).
    Alive {
        /// Unique device name (`uuid:...`).
        usn: String,
        /// Device type URN.
        device_type: String,
        /// Where to fetch the device description.
        location: Addr,
        /// Seconds the advertisement stays valid.
        max_age: u32,
    },
    /// A device announces its departure (multicast).
    ByeBye {
        /// Unique device name.
        usn: String,
        /// Device type URN.
        device_type: String,
    },
    /// A control point searches for devices (multicast). `st` is the
    /// search target: `ssdp:all` or a device type URN.
    MSearch {
        /// Search target.
        st: String,
        /// Unicast address to respond to.
        reply_to: Addr,
    },
    /// A device answers an M-SEARCH (unicast to the searcher).
    SearchResponse {
        /// Unique device name.
        usn: String,
        /// Device type URN.
        device_type: String,
        /// Where to fetch the device description.
        location: Addr,
        /// Seconds the advertisement stays valid.
        max_age: u32,
    },
}

impl SsdpMessage {
    /// Serializes to the HTTP-like SSDP wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            SsdpMessage::Alive {
                usn,
                device_type,
                location,
                max_age,
            } => {
                out.push_str("NOTIFY * HTTP/1.1\r\n");
                out.push_str("NTS: ssdp:alive\r\n");
                out.push_str(&format!("USN: {usn}\r\n"));
                out.push_str(&format!("NT: {device_type}\r\n"));
                out.push_str(&format!(
                    "LOCATION: {}/{}\r\n",
                    location.node.index(),
                    location.port
                ));
                out.push_str(&format!("CACHE-CONTROL: max-age={max_age}\r\n"));
            }
            SsdpMessage::ByeBye { usn, device_type } => {
                out.push_str("NOTIFY * HTTP/1.1\r\n");
                out.push_str("NTS: ssdp:byebye\r\n");
                out.push_str(&format!("USN: {usn}\r\n"));
                out.push_str(&format!("NT: {device_type}\r\n"));
            }
            SsdpMessage::MSearch { st, reply_to } => {
                out.push_str("M-SEARCH * HTTP/1.1\r\n");
                out.push_str("MAN: \"ssdp:discover\"\r\n");
                out.push_str(&format!("ST: {st}\r\n"));
                out.push_str(&format!(
                    "REPLY-TO: {}/{}\r\n",
                    reply_to.node.index(),
                    reply_to.port
                ));
            }
            SsdpMessage::SearchResponse {
                usn,
                device_type,
                location,
                max_age,
            } => {
                out.push_str("HTTP/1.1 200 OK\r\n");
                out.push_str(&format!("USN: {usn}\r\n"));
                out.push_str(&format!("ST: {device_type}\r\n"));
                out.push_str(&format!(
                    "LOCATION: {}/{}\r\n",
                    location.node.index(),
                    location.port
                ));
                out.push_str(&format!("CACHE-CONTROL: max-age={max_age}\r\n"));
            }
        }
        out.push_str("\r\n");
        out.into_bytes()
    }

    /// Parses a wire message. Returns `None` on anything that is not a
    /// recognizable SSDP message (robustness against stray traffic).
    pub fn parse(bytes: &[u8]) -> Option<SsdpMessage> {
        let text = std::str::from_utf8(bytes).ok()?;
        // Every line after the start line is a candidate header; the
        // last of a repeated key wins.
        let (first, lines) = split_start_line(text);
        let header = |key: &str| header_line(lines, key);
        let owned = |key: &str| header(key).map(str::to_owned);
        let parse_addr = |key: &str| -> Option<Addr> {
            let (node, port) = header(key)?.split_once('/')?;
            Some(Addr::new(
                NodeId::from_index(node.parse().ok()?),
                port.parse().ok()?,
            ))
        };
        let max_age = || -> u32 {
            header("CACHE-CONTROL")
                .and_then(|v| v.strip_prefix("max-age="))
                .and_then(|v| v.parse().ok())
                .unwrap_or(1800)
        };
        if first.starts_with("NOTIFY") {
            match header("NTS") {
                Some("ssdp:alive") => Some(SsdpMessage::Alive {
                    usn: owned("USN")?,
                    device_type: owned("NT")?,
                    location: parse_addr("LOCATION")?,
                    max_age: max_age(),
                }),
                Some("ssdp:byebye") => Some(SsdpMessage::ByeBye {
                    usn: owned("USN")?,
                    device_type: owned("NT")?,
                }),
                _ => None,
            }
        } else if first.starts_with("M-SEARCH") {
            Some(SsdpMessage::MSearch {
                st: owned("ST")?,
                reply_to: parse_addr("REPLY-TO")?,
            })
        } else if first.starts_with("HTTP/1.1 200") {
            Some(SsdpMessage::SearchResponse {
                usn: owned("USN")?,
                device_type: owned("ST")?,
                location: parse_addr("LOCATION")?,
                max_age: max_age(),
            })
        } else {
            None
        }
    }

    /// Returns `true` if an M-SEARCH target matches a device type.
    pub fn search_matches(st: &str, device_type: &str) -> bool {
        st == "ssdp:all" || st == device_type
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: usize, p: u16) -> Addr {
        Addr::new(NodeId::from_index(n), p)
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            SsdpMessage::Alive {
                usn: "uuid:1234".to_owned(),
                device_type: "urn:umiddle:device:Clock:1".to_owned(),
                location: addr(3, 5000),
                max_age: 1800,
            },
            SsdpMessage::ByeBye {
                usn: "uuid:1234".to_owned(),
                device_type: "urn:umiddle:device:Clock:1".to_owned(),
            },
            SsdpMessage::MSearch {
                st: "ssdp:all".to_owned(),
                reply_to: addr(0, 6000),
            },
            SsdpMessage::SearchResponse {
                usn: "uuid:5678".to_owned(),
                device_type: "urn:umiddle:device:BinaryLight:1".to_owned(),
                location: addr(1, 5000),
                max_age: 120,
            },
        ];
        for m in msgs {
            assert_eq!(SsdpMessage::parse(&m.to_bytes()), Some(m));
        }
    }

    #[test]
    fn search_target_matching() {
        assert!(SsdpMessage::search_matches("ssdp:all", "urn:x:Clock:1"));
        assert!(SsdpMessage::search_matches(
            "urn:x:Clock:1",
            "urn:x:Clock:1"
        ));
        assert!(!SsdpMessage::search_matches(
            "urn:x:Light:1",
            "urn:x:Clock:1"
        ));
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        assert_eq!(SsdpMessage::parse(b"GET / HTTP/1.0\r\n\r\n"), None);
        assert_eq!(SsdpMessage::parse(&[0xff, 0xfe]), None);
        assert_eq!(SsdpMessage::parse(b""), None);
        // NOTIFY with missing NTS.
        assert_eq!(SsdpMessage::parse(b"NOTIFY * HTTP/1.1\r\n\r\n"), None);
    }

    #[test]
    fn parse_never_panics() {
        simnet::check_cases("ssdp_parse_never_panics", 256, |_, rng| {
            let len = rng.gen_range(0usize..256);
            let bytes = rng.gen_bytes(len);
            let _ = SsdpMessage::parse(&bytes);
        });
    }
}
