//! # umiddle-usdl — the Universal Service Description Language
//!
//! USDL is the XML-based language the paper introduces (§3.4) "to support
//! the representation of semantics of native devices in uMiddle's
//! intermediary semantic space for both humans and machines". A mapper
//! creates a translator (and its shape) for a native device from the USDL
//! document describing that device type, so translator *implementations*
//! stay generic per platform and are mechanically parameterized per
//! device.
//!
//! This crate provides:
//!
//! * The XML subset codec shared by USDL, SOAP, UPnP device
//!   descriptions, GENA and the web-services platform: [`XmlReader`], a
//!   total pull reader with borrowed names and on-demand entity
//!   decoding, which message codecs read their fields from directly;
//!   [`Element`], the owned DOM built from its events for documents
//!   read as a whole; and [`XmlWriter`], which both write through.
//! * [`UsdlDocument`]: the validated document model ([`UsdlPort`]s with
//!   platform-specific [`Binding`]s).
//! * [`UsdlLibrary`]: the registry mappers consult at discovery time,
//!   including [`UsdlLibrary::bundled`] with descriptions for the paper's
//!   whole device corpus (UPnP clock/light/air-conditioner/MediaRenderer,
//!   Bluetooth BIP camera & printer and HIDP mouse, RMI echo,
//!   MediaBroker endpoints, sensor motes, web services).
//!
//! # Examples
//!
//! ```
//! use umiddle_usdl::UsdlLibrary;
//!
//! let lib = UsdlLibrary::bundled();
//! let clock = lib.require("upnp", "urn:umiddle:device:Clock:1")?;
//! assert_eq!(clock.ports().len(), 14); // the paper's 14-port clock
//! let profile = clock.profile(Some("Kitchen Clock"));
//! assert_eq!(profile.platform(), "upnp");
//! # Ok::<(), umiddle_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
mod library;
mod schema;
mod xml;

pub use library::UsdlLibrary;
pub use schema::{Binding, UsdlDocument, UsdlPort};
pub use xml::{
    Attrs, Element, Node, StartTag, XmlError, XmlEvent, XmlReader, XmlWriter, XML_MAX_DEPTH,
};
