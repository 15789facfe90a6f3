//! Identifiers, events and the [`Process`] actor trait.

use std::any::Any;
use std::fmt;

use crate::ctx::Ctx;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the raw index of this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a raw index.
            ///
            /// Only meaningful for indices previously handed out by a
            /// [`World`](crate::World); constructing arbitrary values yields
            /// identifiers that most operations will reject.
            pub const fn from_index(index: usize) -> $name {
                $name(index as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a simulated host.
    NodeId,
    "node"
);
id_newtype!(
    /// Identifies a network segment (shared medium).
    SegmentId,
    "seg"
);
id_newtype!(
    /// Identifies a process (actor) running on a node.
    ProcId,
    "proc"
);
id_newtype!(
    /// Identifies a reliable stream connection.
    StreamId,
    "stream"
);

/// A network address: a node plus a 16-bit port.
///
/// # Examples
///
/// ```
/// use simnet::{Addr, NodeId};
///
/// let a = Addr::new(NodeId::from_index(3), 1900);
/// assert_eq!(a.port, 1900);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr {
    /// The node the port lives on.
    pub node: NodeId,
    /// The port number.
    pub port: u16,
}

impl Addr {
    /// Creates an address.
    pub const fn new(node: NodeId, port: u16) -> Addr {
        Addr { node, port }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// An unreliable datagram delivered to a process.
///
/// `data` is a shared [`Payload`](crate::Payload) view: a multicast
/// delivered to N group members hands every member the same backing
/// allocation, so fan-out costs O(1) per recipient in bytes copied.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Address the datagram was sent from.
    pub src: Addr,
    /// Address the datagram was sent to. For a multicast delivery this
    /// is the receiving node's own id with the group as the port.
    pub dst: Addr,
    /// Payload bytes (shared, immutable).
    pub data: crate::Payload,
    /// `true` if the datagram was delivered via a multicast group.
    pub multicast: bool,
}

/// Events delivered to a process about one of its streams.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// An outbound `connect` completed; the stream is ready.
    Connected,
    /// A listener accepted an inbound connection. The process receives this
    /// with a brand-new [`StreamId`].
    Accepted {
        /// Address of the connecting peer.
        peer: Addr,
        /// Local port the connection arrived on.
        local_port: u16,
    },
    /// In-order payload bytes arrived. The view shares the receive-path
    /// buffer; reassembly of contiguous out-of-order segments may deliver
    /// several `Data` events back to back rather than copy into one.
    Data(crate::Payload),
    /// The send buffer drained below its high-water mark after a
    /// [`SimError::StreamBufferFull`](crate::SimError::StreamBufferFull)
    /// rejection.
    Writable,
    /// The peer closed the stream; no more data will arrive.
    Closed,
    /// The connection attempt failed (no listener, or the peer vanished).
    ConnectFailed,
}

/// A message passed between processes on the same node (zero-cost local
/// IPC, used e.g. between a uMiddle runtime and its mappers).
pub type LocalMessage = Box<dyn Any>;

/// An actor running on a simulated node.
///
/// All methods take a [`Ctx`] giving access to the clock, timers, the
/// network, and tracing. Default implementations ignore every event, so
/// implementors override only what they need.
///
/// Processes are driven purely by events; there is no polling. CPU cost can
/// be modeled with [`Ctx::busy`], which defers subsequent event deliveries
/// to this process.
pub trait Process {
    /// Short, stable name used in traces.
    fn name(&self) -> &str {
        "process"
    }

    /// Called once when the world starts running (or immediately when the
    /// process is spawned into an already-running world).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a datagram arrives on a bound port.
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let _ = (ctx, dgram);
    }

    /// Called when a stream event occurs on one of this process's streams.
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        let _ = (ctx, stream, event);
    }

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when another process on the same node sends a local message
    /// via [`Ctx::send_local`].
    fn on_local(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: LocalMessage) {
        let _ = (ctx, from, msg);
    }

    /// Called when the process is about to be removed from the world
    /// (failure injection or orderly shutdown).
    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId::from_index(2).to_string(), "node2");
        assert_eq!(SegmentId::from_index(0).to_string(), "seg0");
        assert_eq!(ProcId::from_index(7).to_string(), "proc7");
        assert_eq!(StreamId::from_index(9).to_string(), "stream9");
    }

    #[test]
    fn addr_display() {
        let a = Addr::new(NodeId::from_index(1), 80);
        assert_eq!(a.to_string(), "node1:80");
    }

    #[test]
    fn id_round_trip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
    }
}
