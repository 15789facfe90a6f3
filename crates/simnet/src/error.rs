//! Error types for the simulator.

use std::error::Error;
use std::fmt;

use crate::{Addr, NodeId, ProcId, SegmentId, StreamId};

/// Errors returned by [`World`](crate::World) and
/// [`Ctx`](crate::Ctx) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// The referenced process does not exist (never created or removed).
    UnknownProcess(ProcId),
    /// The referenced segment does not exist.
    UnknownSegment(SegmentId),
    /// The referenced stream does not exist or is closed.
    UnknownStream(StreamId),
    /// A port on a node is already bound by another process.
    PortInUse {
        /// The node with the conflict.
        node: NodeId,
        /// The contested port.
        port: u16,
    },
    /// No process is listening on the destination address.
    NoListener(Addr),
    /// The source and destination nodes share no network segment, so no
    /// frame can be transmitted between them.
    NoRoute {
        /// The sending node.
        src: NodeId,
        /// The unreachable node.
        dst: NodeId,
    },
    /// The node is not attached to the given segment.
    NotAttached {
        /// The node in question.
        node: NodeId,
        /// The segment it is not attached to.
        segment: SegmentId,
    },
    /// The segment rejected another attachment (e.g. a Bluetooth piconet
    /// limited to eight devices).
    SegmentFull(SegmentId),
    /// The stream send buffer is full; the caller must wait for
    /// [`StreamEvent::Writable`](crate::StreamEvent::Writable).
    StreamBufferFull(StreamId),
    /// The operation is invalid in the stream's current state.
    StreamClosed(StreamId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SimError::UnknownProcess(id) => write!(f, "unknown process {id}"),
            SimError::UnknownSegment(id) => write!(f, "unknown segment {id}"),
            SimError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            SimError::PortInUse { node, port } => {
                write!(f, "port {port} already bound on node {node}")
            }
            SimError::NoListener(addr) => write!(f, "no listener at {addr}"),
            SimError::NoRoute { src, dst } => {
                write!(f, "no shared segment between {src} and {dst}")
            }
            SimError::NotAttached { node, segment } => {
                write!(f, "node {node} not attached to segment {segment}")
            }
            SimError::SegmentFull(id) => write!(f, "segment {id} is full"),
            SimError::StreamBufferFull(id) => {
                write!(f, "send buffer full on stream {id}")
            }
            SimError::StreamClosed(id) => write!(f, "stream {id} is closed"),
        }
    }
}

impl Error for SimError {}

/// Convenience alias for simulator results.
pub type SimResult<T> = Result<T, SimError>;
