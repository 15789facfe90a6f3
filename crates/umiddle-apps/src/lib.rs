//! # umiddle-apps — the paper's applications, headless
//!
//! Two applications demonstrate uMiddle's platform-independent
//! application development (paper §4):
//!
//! * [`Pads`] — the GUI-based application generator providing
//!   "cross-platform virtual cabling": translators appear as icons, and
//!   drawing a wire establishes a real end-to-end device connection.
//!   Here the GUI is a headless [`Canvas`] model with an ASCII renderer.
//! * [`G2Ui`] — the Geographical User Interface: gadgets are placed at
//!   coordinates, and co-location triggers [`GeoKind::Geoplay`] or
//!   [`GeoKind::Geostore`] compositions across platforms.
//!
//! Beside them sits the one wiring helper the examples, tests and
//! experiments share: [`Wirer`], a headless rule engine that connects
//! ports as their translators appear, configured by [`WireRule`]s, and
//! [`At`], which scripts a command at a virtual time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod g2ui;
mod pads;
mod wiring;

pub use g2ui::{infer_role, Atlas, G2Command, G2Ui, GadgetRole, GeoComposition, GeoKind, Position};
pub use pads::{canvas_translators, Canvas, Icon, Pads, PadsCommand, Wire};
pub use wiring::{At, WireRule, Wirer};
