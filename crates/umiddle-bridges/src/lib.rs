//! # umiddle-bridges — mappers and translators for every platform
//!
//! This crate contains the platform-specific half of uMiddle: for each
//! communication platform, a **mapper** (service-level + transport-level
//! bridge) that discovers native devices and instantiates generic,
//! USDL-parameterized **translators** (device-level bridges) registered
//! with the local uMiddle runtime:
//!
//! * [`UpnpMapper`] — SSDP discovery, description fetch, SOAP control,
//!   GENA eventing.
//! * [`BluetoothMapper`] — inquiry + SDP discovery; BIP (camera,
//!   printer) and HIDP (mouse) translators over OBEX / interrupt
//!   channels.
//! * [`RmiMapper`] — registry polling; request/response call translators.
//! * [`MediaBrokerMapper`] — channel roster polling; source and sink
//!   stream translators.
//! * [`MotesMapper`] — base-station attachment; per-mote sensor
//!   translators.
//! * [`WsMapper`] — endpoint probing; RPC translators with output
//!   polling.
//!
//! Plus [`NativeService`] for devices built directly against uMiddle
//! (the Pads fleet), and the [`direct`] module implementing the paper's
//! rejected design (1-a) as a baseline for the E4 ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluetooth;
pub mod calib;
pub mod direct;
mod mapper;
mod mediabroker;
mod motes;
mod native;
mod rmi;
pub mod scatter;
mod upnp;
mod webservices;

pub use bluetooth::BluetoothMapper;
pub use mapper::{LatencyTally, MapperStats};
pub use mediabroker::MediaBrokerMapper;
pub use motes::MotesMapper;
pub use native::{behaviors, NativeBehavior, NativeEnv, NativeService};
pub use rmi::RmiMapper;
pub use scatter::UpnpExporter;
pub use upnp::UpnpMapper;
pub use webservices::WsMapper;
