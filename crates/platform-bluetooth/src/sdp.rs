//! SDP — the Bluetooth Service Discovery Protocol, as binary PDUs.
//!
//! After inquiry finds a device, a host connects to its SDP server (PSM 1
//! in real Bluetooth; a well-known stream port here) and asks which
//! services it offers. Records carry the profile identifier the uMiddle
//! mapper keys its USDL lookup on ("bip-camera", "hidp-mouse", …).

use std::fmt;

use simnet::{ByteReader, DecodeError, PayloadBuilder};

/// The well-known stream port of the SDP server on every device
/// (stands in for L2CAP PSM 0x0001).
pub const PSM_SDP: u16 = 1;

/// One SDP service record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Record handle, unique per device.
    pub handle: u32,
    /// Profile identifier (`bip-camera`, `hidp-mouse`, …); maps to a
    /// USDL device type.
    pub profile: String,
    /// Human-readable service name.
    pub name: String,
    /// The stream port (PSM/RFCOMM channel analogue) the service listens
    /// on.
    pub psm: u16,
    /// Additional attributes as `(id, value)` pairs.
    pub attributes: Vec<(u16, String)>,
}

impl ServiceRecord {
    /// Creates a record.
    pub fn new(handle: u32, profile: &str, name: &str, psm: u16) -> ServiceRecord {
        ServiceRecord {
            handle,
            profile: profile.to_owned(),
            name: name.to_owned(),
            psm,
            attributes: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attribute(mut self, id: u16, value: impl Into<String>) -> ServiceRecord {
        self.attributes.push((id, value.into()));
        self
    }
}

impl fmt::Display for ServiceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sdp#{} {} ({}) psm {}",
            self.handle, self.profile, self.name, self.psm
        )
    }
}

/// SDP protocol data units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdpPdu {
    /// Asks for all records whose profile contains the pattern (empty
    /// pattern = all records).
    SearchRequest {
        /// Transaction id echoed in the response.
        transaction: u16,
        /// Substring pattern over profile identifiers.
        pattern: String,
    },
    /// The matching records.
    SearchResponse {
        /// Transaction id from the request.
        transaction: u16,
        /// Matching records.
        records: Vec<ServiceRecord>,
    },
    /// Protocol error.
    Error {
        /// Transaction id from the request.
        transaction: u16,
        /// Error code.
        code: u16,
    },
}

const PDU_SEARCH_REQ: u8 = 0x02;
const PDU_SEARCH_RSP: u8 = 0x03;
const PDU_ERROR: u8 = 0x01;

impl SdpPdu {
    /// Encodes the PDU (big-endian, like real Bluetooth).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = PayloadBuilder::new();
        match self {
            SdpPdu::SearchRequest {
                transaction,
                pattern,
            } => {
                out.push(PDU_SEARCH_REQ);
                out.u16_be(*transaction);
                out.str16_be(pattern);
            }
            SdpPdu::SearchResponse {
                transaction,
                records,
            } => {
                out.push(PDU_SEARCH_RSP);
                out.u16_be(*transaction);
                out.u16_be(records.len() as u16);
                for r in records {
                    out.u32_be(r.handle);
                    out.str16_be(&r.profile);
                    out.str16_be(&r.name);
                    out.u16_be(r.psm);
                    out.u16_be(r.attributes.len() as u16);
                    for (id, v) in &r.attributes {
                        out.u16_be(*id);
                        out.str16_be(v);
                    }
                }
            }
            SdpPdu::Error { transaction, code } => {
                out.push(PDU_ERROR);
                out.u16_be(*transaction);
                out.u16_be(*code);
            }
        }
        out.into_vec()
    }

    /// Decodes a PDU. Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<SdpPdu> {
        Self::read(ByteReader::new(bytes)).ok()
    }

    fn read(mut r: ByteReader<'_>) -> Result<SdpPdu, DecodeError> {
        let pdu = match r.u8()? {
            PDU_SEARCH_REQ => SdpPdu::SearchRequest {
                transaction: r.u16_be()?,
                pattern: r.str16_be()?.to_owned(),
            },
            PDU_SEARCH_RSP => {
                let transaction = r.u16_be()?;
                let n = usize::from(r.u16_be()?);
                let mut records = Vec::with_capacity(r.capacity_for(n));
                for _ in 0..n {
                    let handle = r.u32_be()?;
                    let profile = r.str16_be()?.to_owned();
                    let name = r.str16_be()?.to_owned();
                    let psm = r.u16_be()?;
                    let n_attrs = usize::from(r.u16_be()?);
                    let mut attributes = Vec::with_capacity(r.capacity_for(n_attrs));
                    for _ in 0..n_attrs {
                        attributes.push((r.u16_be()?, r.str16_be()?.to_owned()));
                    }
                    records.push(ServiceRecord {
                        handle,
                        profile,
                        name,
                        psm,
                        attributes,
                    });
                }
                SdpPdu::SearchResponse {
                    transaction,
                    records,
                }
            }
            PDU_ERROR => SdpPdu::Error {
                transaction: r.u16_be()?,
                code: r.u16_be()?,
            },
            _ => return Err(DecodeError::Malformed),
        };
        r.finish()?;
        Ok(pdu)
    }

    /// Evaluates a search pattern against a record.
    pub fn pattern_matches(pattern: &str, record: &ServiceRecord) -> bool {
        pattern.is_empty() || record.profile.contains(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ServiceRecord {
        ServiceRecord::new(0x10000, "bip-camera", "Pocket Camera", 9)
            .with_attribute(0x0100, "imaging")
            .with_attribute(0x0200, "jpeg")
    }

    fn pdus() -> Vec<SdpPdu> {
        vec![
            SdpPdu::SearchRequest {
                transaction: 7,
                pattern: "bip".to_owned(),
            },
            SdpPdu::SearchResponse {
                transaction: 7,
                records: vec![sample_record()],
            },
            SdpPdu::SearchResponse {
                transaction: 8,
                records: vec![],
            },
            SdpPdu::Error {
                transaction: 9,
                code: 0x0003,
            },
        ]
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let corpus: Vec<Vec<u8>> = pdus().iter().map(SdpPdu::encode).collect();
        simnet::check_mutations("sdp_structured_mutations", &corpus, |m| {
            SdpPdu::decode(m).map(|p| p.encode())
        });
    }

    #[test]
    fn pattern_matching() {
        let r = sample_record();
        assert!(SdpPdu::pattern_matches("", &r));
        assert!(SdpPdu::pattern_matches("bip", &r));
        assert!(SdpPdu::pattern_matches("bip-camera", &r));
        assert!(!SdpPdu::pattern_matches("hidp", &r));
    }

    #[test]
    fn record_round_trip() {
        simnet::check_cases("sdp_record_round_trip", 256, |_, rng| {
            let handle = rng.gen_range(0u32..=u32::MAX);
            let plen = rng.gen_range(1usize..=16);
            let profile = rng.gen_string("abcdefghijklmnopqrstuvwxyz-", plen);
            let nlen = rng.gen_range(0usize..=24);
            let printable: String = (b' '..=b'~').map(char::from).collect();
            let name = rng.gen_string(&printable, nlen);
            let psm = rng.gen_range(0u16..=u16::MAX);
            let pdu = SdpPdu::SearchResponse {
                transaction: 1,
                records: vec![ServiceRecord::new(handle, &profile, &name, psm)],
            };
            assert_eq!(SdpPdu::decode(&pdu.encode()), Some(pdu));
        });
    }
}
