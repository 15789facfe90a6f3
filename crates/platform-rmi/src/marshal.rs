//! Java-serialization-style marshaling.
//!
//! Java RMI's wire format is notoriously verbose: every object carries
//! its full class name, field names and type tags. That verbosity (plus
//! per-call protocol chatter) is why the paper's RMI echo tops out at
//! 3.2 Mbps on a 10 Mbps hub (Figure 11) while MediaBroker reaches 6.2.
//! This codec reproduces the *structure* of that cost: self-describing
//! tagged values with embedded names.

use std::fmt;

use simnet::{ByteReader, DecodeError, Payload, PayloadBuilder};

/// A marshaled Java-ish value.
#[derive(Debug, Clone, PartialEq)]
pub enum JavaValue {
    /// `null`.
    Null,
    /// `int`.
    Int(i32),
    /// `long`.
    Long(i64),
    /// `java.lang.String`.
    Str(String),
    /// `byte[]` as a shared [`Payload`]: a `UMessage` body crosses the
    /// bridge into an RMI call argument without copying, and
    /// [`JavaValue::unmarshal_payload`] returns it as a zero-copy slice
    /// of the received frame.
    Bytes(Payload),
    /// An object: class name plus named fields.
    Object {
        /// Fully qualified class name.
        class: String,
        /// Field name/value pairs.
        fields: Vec<(String, JavaValue)>,
    },
    /// A list of values.
    List(Vec<JavaValue>),
}

impl fmt::Display for JavaValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JavaValue::Null => write!(f, "null"),
            JavaValue::Int(v) => write!(f, "{v}"),
            JavaValue::Long(v) => write!(f, "{v}L"),
            JavaValue::Str(s) => write!(f, "{s:?}"),
            JavaValue::Bytes(b) => write!(f, "byte[{}]", b.len()),
            JavaValue::Object { class, fields } => {
                write!(f, "{class}{{{} fields}}", fields.len())
            }
            JavaValue::List(items) => write!(f, "list[{}]", items.len()),
        }
    }
}

const TAG_NULL: u8 = 0x70;
const TAG_INT: u8 = 0x49;
const TAG_LONG: u8 = 0x4A;
const TAG_STR: u8 = 0x74;
const TAG_BYTES: u8 = 0x42;
const TAG_OBJECT: u8 = 0x73;
const TAG_LIST: u8 = 0x4C;
/// Stream magic, like JRMP's `0xACED`.
const MAGIC: u16 = 0xACED;
/// Recursion bound for hostile input.
const MAX_DEPTH: u32 = 64;

impl JavaValue {
    /// Marshals the value, including the stream magic header.
    pub fn marshal(&self) -> Vec<u8> {
        let mut out = PayloadBuilder::new();
        out.u16_be(MAGIC);
        self.write(&mut out);
        out.into_vec()
    }

    fn write(&self, out: &mut PayloadBuilder) {
        match self {
            JavaValue::Null => out.push(TAG_NULL),
            JavaValue::Int(v) => {
                out.push(TAG_INT);
                // Self-describing: type name travels with the value.
                out.str16_be("int");
                out.u32_be(*v as u32);
            }
            JavaValue::Long(v) => {
                out.push(TAG_LONG);
                out.str16_be("long");
                out.u64_be(*v as u64);
            }
            JavaValue::Str(s) => {
                out.push(TAG_STR);
                out.str16_be("java.lang.String");
                out.str16_be(s);
            }
            JavaValue::Bytes(b) => {
                out.push(TAG_BYTES);
                out.str16_be("[B");
                out.u32_be(b.len() as u32);
                out.extend_from_slice(b);
            }
            JavaValue::Object { class, fields } => {
                out.push(TAG_OBJECT);
                out.str16_be(class);
                out.u16_be(fields.len() as u16);
                for (name, value) in fields {
                    out.str16_be(name);
                    value.write(out);
                }
            }
            JavaValue::List(items) => {
                out.push(TAG_LIST);
                out.str16_be("java.util.ArrayList");
                out.u32_be(items.len() as u32);
                for item in items {
                    item.write(out);
                }
            }
        }
    }

    /// Unmarshals a value.
    pub fn unmarshal(bytes: &[u8]) -> Option<JavaValue> {
        read_stream(ByteReader::new(bytes)).ok()
    }

    /// Unmarshals from a shared buffer; `byte[]` values come back as
    /// zero-copy sub-slices of `payload`.
    pub fn unmarshal_payload(payload: &Payload) -> Option<JavaValue> {
        read_stream(ByteReader::with_backing(payload)).ok()
    }

    /// Size in bytes when marshaled (used for CPU-cost accounting).
    pub fn marshaled_len(&self) -> usize {
        self.marshal().len()
    }
}

/// The magic header, one value, and nothing after it.
fn read_stream(mut r: ByteReader<'_>) -> Result<JavaValue, DecodeError> {
    if r.u16_be()? != MAGIC {
        return Err(DecodeError::Malformed);
    }
    let v = read_value(&mut r, 0)?;
    r.finish()?;
    Ok(v)
}

fn read_value(r: &mut ByteReader<'_>, depth: u32) -> Result<JavaValue, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::Malformed);
    }
    Ok(match r.u8()? {
        TAG_NULL => JavaValue::Null,
        TAG_INT => {
            let _ty = r.str16_be()?;
            JavaValue::Int(r.u32_be()? as i32)
        }
        TAG_LONG => {
            let _ty = r.str16_be()?;
            JavaValue::Long(r.u64_be()? as i64)
        }
        TAG_STR => {
            let _ty = r.str16_be()?;
            JavaValue::Str(r.str16_be()?.to_owned())
        }
        TAG_BYTES => {
            let _ty = r.str16_be()?;
            let n = r.u32_be()? as usize;
            JavaValue::Bytes(r.payload(n)?)
        }
        TAG_OBJECT => {
            let class = r.str16_be()?.to_owned();
            let n = usize::from(r.u16_be()?);
            let mut fields = Vec::with_capacity(r.capacity_for(n));
            for _ in 0..n {
                let name = r.str16_be()?.to_owned();
                fields.push((name, read_value(r, depth + 1)?));
            }
            JavaValue::Object { class, fields }
        }
        TAG_LIST => {
            let _class = r.str16_be()?;
            let n = r.u32_be()? as usize;
            let mut items = Vec::with_capacity(r.capacity_for(n));
            for _ in 0..n {
                items.push(read_value(r, depth + 1)?);
            }
            JavaValue::List(items)
        }
        _ => return Err(DecodeError::Malformed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JavaValue {
        JavaValue::Object {
            class: "edu.gatech.Echo$Message".to_owned(),
            fields: vec![
                ("seq".to_owned(), JavaValue::Long(42)),
                ("payload".to_owned(), JavaValue::Bytes(vec![7; 1400].into())),
                ("note".to_owned(), JavaValue::Str("hello".to_owned())),
                ("next".to_owned(), JavaValue::Null),
            ],
        }
    }

    #[test]
    fn verbosity_overhead_is_substantial() {
        // 1400 payload bytes marshal to noticeably more: the RMI cost.
        let v = sample();
        let len = v.marshaled_len();
        assert!(len > 1400 + 60, "marshal adds names and tags: {len}");
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = sample().marshal();
        bytes[0] = 0;
        assert_eq!(JavaValue::unmarshal(&bytes), None);
    }

    fn arb_value(rng: &mut simnet::SimRng, depth: u32) -> JavaValue {
        let leaf = depth == 0 || rng.gen_bool(0.5);
        if leaf {
            match rng.gen_range(0u8..5) {
                0 => JavaValue::Null,
                1 => JavaValue::Int(rng.gen_range(i32::MIN..=i32::MAX)),
                2 => JavaValue::Long(rng.gen_range(i64::MIN..=i64::MAX)),
                3 => {
                    let len = rng.gen_range(0usize..=32);
                    JavaValue::Str(rng.gen_string(
                        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
                        len,
                    ))
                }
                _ => {
                    let len = rng.gen_range(0usize..64);
                    JavaValue::Bytes(rng.gen_bytes(len).into())
                }
            }
        } else if rng.gen_bool(0.5) {
            let n = rng.gen_range(0usize..4);
            JavaValue::List((0..n).map(|_| arb_value(rng, depth - 1)).collect())
        } else {
            let clen = rng.gen_range(1usize..=24);
            let class = rng.gen_string(
                "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ.$",
                clen,
            );
            let n = rng.gen_range(0usize..4);
            let fields = (0..n)
                .map(|_| {
                    let flen = rng.gen_range(1usize..=8);
                    let name = rng.gen_string("abcdefghijklmnopqrstuvwxyz", flen);
                    (name, arb_value(rng, depth - 1))
                })
                .collect();
            JavaValue::Object { class, fields }
        }
    }

    #[test]
    fn arbitrary_values_round_trip() {
        simnet::check_cases("rmi_arbitrary_values_round_trip", 256, |_, rng| {
            let v = arb_value(rng, 3);
            assert_eq!(JavaValue::unmarshal(&v.marshal()), Some(v));
        });
    }

    #[test]
    fn structured_mutations_never_panic_the_decoder() {
        let mut rng = simnet::SimRng::seed_from_u64(7);
        let mut corpus: Vec<Vec<u8>> = (0..8).map(|_| arb_value(&mut rng, 3).marshal()).collect();
        corpus.push(sample().marshal());
        simnet::check_mutations("rmi_marshal_structured_mutations", &corpus, |m| {
            let shared = JavaValue::unmarshal_payload(&Payload::copy_from_slice(m));
            assert_eq!(shared, JavaValue::unmarshal(m));
            shared.map(|v| v.marshal())
        });
    }
}
