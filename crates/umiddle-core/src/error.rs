//! Error types for the uMiddle core.

use std::error::Error;
use std::fmt;

use crate::id::{ConnectionId, PortRef, RuntimeId, TranslatorId};

/// Errors produced by the uMiddle core library.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A string did not parse as a MIME type, or its components were
    /// malformed.
    InvalidMime(String),
    /// A shape declared two ports with the same name.
    DuplicatePort(String),
    /// A referenced translator is not in the directory.
    UnknownTranslator(TranslatorId),
    /// A referenced port does not exist on its translator.
    UnknownPort(PortRef),
    /// A referenced connection does not exist.
    UnknownConnection(ConnectionId),
    /// A connection was requested between incompatible ports (direction or
    /// data-type mismatch); the message explains which check failed.
    Incompatible(String),
    /// A wire message failed to decode.
    Decode(String),
    /// A USDL or shape validation failure.
    Invalid(String),
    /// A forwarded request's target runtime stopped gossiping and was
    /// evicted from the directory before it replied.
    HomeUnreachable(RuntimeId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidMime(s) => write!(f, "invalid MIME type: {s:?}"),
            CoreError::DuplicatePort(name) => write!(f, "duplicate port name {name:?}"),
            CoreError::UnknownTranslator(id) => write!(f, "unknown translator {id}"),
            CoreError::UnknownPort(port) => write!(f, "unknown port {port}"),
            CoreError::UnknownConnection(id) => write!(f, "unknown connection {id}"),
            CoreError::Incompatible(why) => write!(f, "incompatible ports: {why}"),
            CoreError::Decode(why) => write!(f, "wire decode failed: {why}"),
            CoreError::Invalid(why) => write!(f, "invalid description: {why}"),
            CoreError::HomeUnreachable(rt) => write!(f, "home runtime {rt} unreachable"),
        }
    }
}

impl Error for CoreError {}

/// Convenience alias for core results.
pub type CoreResult<T> = Result<T, CoreError>;
