//! # umiddle-core — the intermediary semantic space
//!
//! This crate implements the core of **uMiddle**, the bridging framework
//! for universal interoperability described in *"A Bridging Framework for
//! Universal Interoperability in Pervasive Systems"* (ICDCS 2006). It
//! realizes the paper's chosen point in the design space: **mediated
//! translation** into a platform-neutral common representation,
//! **aggregated visibility**, **fine-grained (port-typed) semantics**, and
//! an interoperability layer **in the infrastructure**.
//!
//! The main pieces:
//!
//! * **Service Shaping** ([`Shape`], [`PortSpec`], [`PortKind`]): devices
//!   are represented as sets of typed ports — digital ports tagged with a
//!   [`MimeType`], physical ports tagged with a [`PerceptionType`] and a
//!   media type. Compatibility is matching port types, not device types.
//! * **Queries** ([`Query`]): the predicate algebra used by
//!   `lookup(Query)` and by dynamic device binding.
//! * **Profiles & directory** ([`TranslatorProfile`], [`DirectoryTable`]):
//!   what runtimes advertise and replicate.
//! * **The runtime** ([`UmiddleRuntime`]): a [`simnet`] process hosting
//!   the directory module (advertisement gossip with TTLs) and the
//!   transport module (message paths over streams, dynamic template
//!   binding, per-path [`TranslationBuffer`]s with QoS policies).
//! * **The local API** ([`RuntimeRequest`], [`RuntimeEvent`],
//!   [`RuntimeClient`]): how mappers, native services and applications on
//!   a node talk to their runtime, mirroring the paper's Figures 6 and 7.
//!
//! Mappers and translators for concrete platforms (UPnP, Bluetooth, …)
//! live in the `umiddle-bridges` crate; this crate is platform-neutral,
//! exactly as the paper prescribes: "the platform-specific knowledge of a
//! device is concealed by its translator and the mapper, and the rest of
//! the system is platform-independent."
//!
//! # Examples
//!
//! Building the paper's BIP-camera shape and finding what it can drive:
//!
//! ```
//! use umiddle_core::{Direction, PerceptionType, PortSpec, Query, Shape, PortKind};
//!
//! let camera = Shape::builder()
//!     .digital("image-out", Direction::Output, "image/jpeg".parse()?)
//!     .build()?;
//!
//! // "Show my pictures somewhere visible."
//! let viewers = Query::has_port(Direction::Input, PortKind::Digital("image/jpeg".parse()?))
//!     .and(Query::has_port(
//!         Direction::Output,
//!         PortKind::physical(PerceptionType::Visible, "*"),
//!     ));
//! # let _ = (camera, viewers);
//! # Ok::<(), umiddle_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod design_space;
mod directory;
mod error;
mod id;
mod intern;
mod message;
mod mime;
mod profile;
mod qos;
mod query;
mod replica;
mod runtime;
mod shape;
mod wire;

pub use api::{
    ack_input_done, handle_input_done_echo, ConnectTarget, DirectoryEvent, InputDoneEcho,
    RuntimeClient, RuntimeEvent, RuntimeRequest,
};
pub use directory::{DirectoryEntry, DirectoryTable, UpsertEffect};
pub use error::{CoreError, CoreResult};
pub use id::{ConnectionId, PortRef, RuntimeId, TranslatorId};
pub use intern::Symbol;
pub use message::UMessage;
pub use mime::MimeType;
pub use profile::{TranslatorProfile, TranslatorProfileBuilder};
pub use qos::{BufferStats, OverflowPolicy, QosPolicy, RateLimit, TranslationBuffer};
pub use query::Query;
pub use replica::{DeltaOutcome, DirectoryReplica, ServeReply};
pub use runtime::{RuntimeConfig, RuntimeStats, UmiddleRuntime};
pub use shape::{Direction, PerceptionType, PortKind, PortSpec, Shape, ShapeBuilder};
pub use wire::{DeltaOp, FrameDecoder, WireMessage, WireTarget};
