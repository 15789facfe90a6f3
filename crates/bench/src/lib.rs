//! # bench — the uMiddle evaluation harness
//!
//! Regenerates every table and figure of the paper's §5 plus the
//! ablations DESIGN.md calls for:
//!
//! * [`experiments::e1_service_level`] — Figure 10 (translator
//!   generation rates).
//! * [`experiments::e2_device_level`] — §5.2 (SetPower / mouse-signal
//!   latency).
//! * [`experiments::e3_transport_level`] — Figure 11 (TCP / MB / RMI /
//!   RMI-MB throughput).
//! * [`experiments::e4_ablation_translation`] — direct vs mediated
//!   translation (§2.2.1 / Table 1).
//! * [`experiments::e5_ablation_qos`] — QoS control (§5.3 / §7 future
//!   work).
//! * [`experiments::e6_directory_scale`] — directory federation
//!   scalability (§3.6).
//! * [`experiments::e8_observability`] — metrics registry + path spans
//!   (exports via `bench trace`; the `BENCH_observability.json` record
//!   via `bench experiments e8 --json`).
//! * [`experiments::e9_sched_scale`] — scheduler scaling, 100 → 1000
//!   devices across all six bridges (`bench perf-sched`).
//! * [`experiments::e10_telemetry_faults`] — telemetry plane: SLO
//!   burn-rate alerts + the federation health doctor under fault
//!   injection (exports via `bench doctor`).
//!
//! Run everything with `cargo bench -p bench` (the `figures` bench
//! target) or `cargo run -p bench --release -- experiments`. The crate
//! builds one binary, `bench`, whose subcommands (`experiments`,
//! `trace`, `doctor`, `incident`, `attrib`, `fidelity`, `fingerprint`,
//! `perf-payload`, `perf-sched`, `perf-dir`, `lint`) are every export
//! and gate `ci.sh` runs; see `src/bin/bench/main.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod report;
pub mod timing;
