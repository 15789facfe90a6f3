//! Identifiers for entities in the intermediary semantic space.

use std::fmt;

use simnet::{DetailArg, SpanDetail};

use crate::intern::Symbol;

/// Identifies a uMiddle runtime instance.
///
/// Runtime ids are assigned by the deployer and must be unique within a
/// federation of runtimes (the paper's "intermediary translator nodes"
/// H1, H2, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RuntimeId(pub u32);

impl fmt::Display for RuntimeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rt{}", self.0)
    }
}

/// Globally unique identifier of a translator.
///
/// A translator id combines the id of the runtime that hosts it with a
/// locally unique sequence number, so ids can be allocated without
/// coordination.
///
/// # Examples
///
/// ```
/// use umiddle_core::{RuntimeId, TranslatorId};
///
/// let id = TranslatorId::new(RuntimeId(2), 7);
/// assert_eq!(id.to_string(), "rt2/t7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TranslatorId {
    /// The runtime hosting the translator.
    pub runtime: RuntimeId,
    /// Sequence number local to that runtime.
    pub local: u32,
}

impl TranslatorId {
    /// Creates a translator id.
    pub const fn new(runtime: RuntimeId, local: u32) -> TranslatorId {
        TranslatorId { runtime, local }
    }
}

impl fmt::Display for TranslatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/t{}", self.runtime, self.local)
    }
}

/// A reference to one port of one translator.
///
/// # Examples
///
/// ```
/// use umiddle_core::{PortRef, RuntimeId, TranslatorId};
///
/// let r = PortRef::new(TranslatorId::new(RuntimeId(0), 1), "image-out");
/// assert_eq!(r.to_string(), "rt0/t1.image-out");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The owning translator.
    pub translator: TranslatorId,
    /// The port's name (interned), unique within the translator.
    pub port: Symbol,
}

impl PortRef {
    /// Creates a port reference, interning the port name.
    pub fn new(translator: TranslatorId, port: impl Into<Symbol>) -> PortRef {
        PortRef {
            translator,
            port: port.into(),
        }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.translator, self.port)
    }
}

/// Span detail pieces naming a port as `PortRef`'s `Display` does:
/// `src=…`, `dst=…` and a late binding's `dst=… (late)`.
pub(crate) const SRC_DETAIL: &[&str] = &["src=rt", "/t", ".", ""];
pub(crate) const DST_DETAIL: &[&str] = &["dst=rt", "/t", ".", ""];
pub(crate) const LATE_DST_DETAIL: &[&str] = &["dst=rt", "/t", ".", " (late)"];

impl PortRef {
    /// A span detail naming this port as its `Display` does, between
    /// `pieces` `[prefix + "rt", "/t", ".", suffix]` (one of the
    /// `*_DETAIL` constants) — built without allocating.
    pub(crate) fn detail(&self, pieces: &'static [&'static str]) -> SpanDetail {
        SpanDetail::new(
            pieces,
            [
                DetailArg::U64(self.translator.runtime.0.into()),
                DetailArg::U64(self.translator.local.into()),
                DetailArg::Str(self.port.as_static()),
            ],
        )
    }
}

/// Identifies one established message path (connection) between ports.
///
/// Connection ids are allocated by the runtime that owns the source port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId {
    /// The runtime that created the connection.
    pub runtime: RuntimeId,
    /// Sequence number local to that runtime.
    pub local: u32,
}

impl ConnectionId {
    /// Creates a connection id.
    pub const fn new(runtime: RuntimeId, local: u32) -> ConnectionId {
        ConnectionId { runtime, local }
    }

    /// The correlation id used for span tracing: connection ids are
    /// federation-unique, so `(runtime << 32) | local` correlates every
    /// hop of a path across runtimes and platform bridges.
    pub const fn corr(self) -> u64 {
        ((self.runtime.0 as u64) << 32) | self.local as u64
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/c{}", self.runtime, self.local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        set.insert(TranslatorId::new(RuntimeId(0), 0));
        set.insert(TranslatorId::new(RuntimeId(0), 1));
        set.insert(TranslatorId::new(RuntimeId(1), 0));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn port_detail_renders_as_display() {
        let p = PortRef::new(TranslatorId::new(RuntimeId(12), 345), "image-out");
        assert_eq!(p.detail(SRC_DETAIL).to_string(), format!("src={p}"));
        assert_eq!(p.detail(DST_DETAIL).to_string(), format!("dst={p}"));
        assert_eq!(
            p.detail(LATE_DST_DETAIL).to_string(),
            format!("dst={p} (late)")
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(RuntimeId(3).to_string(), "rt3");
        assert_eq!(ConnectionId::new(RuntimeId(1), 4).to_string(), "rt1/c4");
    }

    #[test]
    fn port_refs_order_by_translator_then_port() {
        let a = PortRef::new(TranslatorId::new(RuntimeId(0), 1), "a");
        let b = PortRef::new(TranslatorId::new(RuntimeId(0), 1), "b");
        let c = PortRef::new(TranslatorId::new(RuntimeId(0), 2), "a");
        assert!(a < b && b < c);
    }
}
