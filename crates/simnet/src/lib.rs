//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the substrate the uMiddle reproduction runs on. It replaces
//! the paper's physical testbed (three laptops on a 10 Mbps Ethernet hub,
//! a Bluetooth piconet, mote radios) with a deterministic simulation:
//!
//! * **Nodes** are simulated hosts running **processes** (actors
//!   implementing [`Process`]).
//! * **Segments** are shared media ([`SegmentConfig`]) — an Ethernet hub,
//!   a Bluetooth piconet, a mote radio channel — with bandwidth, latency,
//!   per-frame overhead, optional half-duplex contention and loss.
//! * **Datagrams** and **multicast** model UDP/SSDP-style traffic;
//!   **streams** ([`StreamEvent`]) model TCP connections including ACK
//!   traffic that competes for the medium.
//! * **CPU cost** is modeled with [`Ctx::busy`], deferring event delivery
//!   to a "computing" process.
//!
//! Runs are a pure function of the seed: the event queue is totally
//! ordered by `(time, insertion sequence)` and all randomness flows from
//! one seeded RNG.
//!
//! # Examples
//!
//! A two-node ping over a simulated 10 Mbps hub:
//!
//! ```
//! use simnet::{Addr, Ctx, Datagram, Process, SegmentConfig, SimTime, World};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.bind(7).unwrap();
//!     }
//!     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, d: Datagram) {
//!         ctx.send_to(7, d.src, d.data).unwrap();
//!     }
//! }
//!
//! struct Ping { target: Addr }
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.bind(9).unwrap();
//!         ctx.send_to(9, self.target, b"hi".to_vec()).unwrap();
//!     }
//!     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _d: Datagram) {
//!         ctx.trace(format!("pong after {}", ctx.now()));
//!     }
//! }
//!
//! # fn main() -> Result<(), simnet::SimError> {
//! let mut world = World::new(42);
//! let hub = world.add_segment(SegmentConfig::ethernet_10mbps_hub());
//! let a = world.add_node("a");
//! let b = world.add_node("b");
//! world.attach(a, hub)?;
//! world.attach(b, hub)?;
//! world.add_process(b, Box::new(Echo));
//! world.add_process(a, Box::new(Ping { target: Addr::new(b, 7) }));
//! world.run_until(SimTime::from_secs(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
mod ctx;
mod error;
pub mod export;
pub mod hash;
pub mod health;
pub mod incident;
mod journal;
pub mod json;
mod medium;
pub mod payload;
mod process;
pub mod rng;
pub mod span;
mod stream;
mod time;
pub mod timeseries;
mod trace;
pub mod wheel;
mod world;

pub use attrib::{AttributionPlane, AttributionReport, ComponentTimes};
pub use ctx::Ctx;
pub use error::{SimError, SimResult};
pub use export::{diff_attribution, folded_stacks, open_metrics, perfetto_trace_json};
pub use hash::{IntHasher, IntMap, IntSet};
pub use health::{
    AlertState, AlertStatus, AlertTransition, BurnRateRule, HealthReport, Objective, SloEngine,
    SloKind, TelemetryConfig,
};
pub use incident::{IncidentBundle, TopologyDigest, TriggerKind};
pub use journal::SpanSource;
pub use json::{Json, JsonError, Layout};
pub use medium::{schedule_tx, SegmentConfig, TxTiming};
pub use payload::{ByteReader, ChunkQueue, DecodeError, Payload, PayloadBuilder, PayloadStats};
pub use process::{
    Addr, Datagram, LocalMessage, NodeId, ProcId, Process, SegmentId, StreamEvent, StreamId,
};
pub use rng::{check_cases, check_mutations, SimRng};
pub use span::{CriticalPath, PathExpectation, SpanNode, SpanTree, StageCost, TraceAssert};
pub use time::{SimDuration, SimTime};
pub use timeseries::{SamplerConfig, Telemetry, TelemetryWindow};
pub use trace::{
    DetailArg, Histogram, MetricId, MetricRef, Metrics, MetricsSnapshot, SegmentStats, SpanDetail,
    SpanId, SpanRecord, Trace, TraceEvent,
};
pub use wheel::TimerWheel;
pub use world::World;
