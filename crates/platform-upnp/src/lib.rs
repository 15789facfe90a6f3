//! # platform-upnp — a simulated UPnP platform
//!
//! One of the native communication platforms the uMiddle reproduction
//! bridges. The paper's testbed used CyberLink's Java UPnP stack with
//! emulated clock, light and air-conditioner devices plus a MediaRenderer
//! TV; this crate rebuilds that stack on [`simnet`]:
//!
//! * [`SsdpMessage`]: SSDP discovery over simulated UDP multicast
//!   (alive / byebye / M-SEARCH / responses).
//! * [`HttpRequest`]/[`HttpResponse`]/[`HttpAccumulator`]: HTTP/1.0 over
//!   simulated TCP streams, and [`HttpConns`], the one connection table
//!   every HTTP speaker here and in the web-services platform and the
//!   scatter exporter keeps: outbound exchanges that end in exactly one
//!   typed response or failure, one-way sends, accepted connections.
//! * [`SoapCall`]/[`SoapResult`]: SOAP 1.1 action envelopes.
//! * [`Subscribe`]/[`Notify`]: GENA eventing.
//! * [`UpnpDevice`] + [`DeviceLogic`]: the generic emulated device engine
//!   with pluggable behaviour — [`ClockLogic`] (two services, the paper's
//!   most expensive translator), [`LightLogic`] (the §5.2 SetPower
//!   benchmark target), [`AirconLogic`], [`MediaRendererLogic`].
//! * [`ControlPoint`]: the client engine the uMiddle mapper embeds.
//!
//! CPU costs are calibrated in [`calib`] to the paper's 2006-era Java
//! stack, where XML marshaling dominates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod client;
mod description;
mod device;
mod devices;
mod gena;
mod http;
mod soap;
mod ssdp;

pub use client::{ControlPoint, CpEvent, CpRequest};
pub use description::{ActionArg, ActionDesc, ArgDirection, DeviceDesc, ServiceDesc, StateVarDesc};
pub use device::{DeviceLogic, StateTable, UpnpDevice};
pub use devices::{AirconLogic, ClockLogic, LightLogic, MediaRendererLogic};
pub use gena::{Notify, Subscribe};
pub use http::{HttpAccumulator, HttpConns, HttpEvent, HttpMessage, HttpRequest, HttpResponse};
pub use soap::{SoapCall, SoapResult};
pub use ssdp::{SsdpMessage, SSDP_GROUP};
