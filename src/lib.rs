//! # umiddle — facade crate for the uMiddle reproduction
//!
//! uMiddle is "a bridging framework for universal interoperability in
//! pervasive systems" (ICDCS 2006): devices from mutually incompatible
//! communication platforms (UPnP, Bluetooth, Java RMI, MediaBroker,
//! Berkeley motes, web services) interoperate through a platform-neutral
//! intermediary semantic space built on Service Shaping (typed ports),
//! USDL-parameterized generic translators, a federated directory, and
//! dynamic device binding.
//!
//! This crate re-exports the whole workspace under one roof. Start with
//! the `quickstart` example, then read [`umiddle_core`] for the model,
//! [`umiddle_bridges`] for the platform mappers, and [`umiddle_apps`]
//! for the applications and the one wiring helper
//! ([`umiddle_apps::Wirer`]) the examples use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use platform_bluetooth;
pub use platform_mediabroker;
pub use platform_motes;
pub use platform_rmi;
pub use platform_upnp;
pub use platform_webservices;
pub use simnet;
pub use umiddle_apps;
pub use umiddle_bridges;
pub use umiddle_core;
pub use umiddle_usdl;
