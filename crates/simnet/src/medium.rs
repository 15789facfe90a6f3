//! Shared-medium model: segment configuration and transmission timing.
//!
//! A *segment* is a broadcast domain every attached node can transmit on: an
//! Ethernet hub, a Bluetooth piconet, a mote radio channel, or an in-host
//! loopback. Frames on a half-duplex segment contend for the single medium:
//! a frame starts transmitting when the medium frees up (plus a small random
//! backoff when it found the medium busy, approximating CSMA/CD/CA), holds
//! the medium for its serialization time, and arrives after the propagation
//! latency. This is what caps end-to-end throughput below the nominal line
//! rate, reproducing the paper's 7.9 Mbps TCP baseline on a 10 Mbps hub.

use crate::time::{SimDuration, SimTime};

/// Static configuration of a network segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentConfig {
    /// Human-readable name used in traces.
    pub name: String,
    /// Nominal line rate in bits per second.
    pub bits_per_second: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Link-layer overhead bytes added to every frame (preamble, MAC
    /// headers, checksums, inter-frame gap equivalent).
    pub frame_overhead: u32,
    /// Maximum payload bytes per frame. Larger sends are segmented by the
    /// caller (the stream layer) or rejected (datagrams).
    pub mtu: u32,
    /// `true` if all attached nodes share one medium (hub, radio); `false`
    /// models an idealized switched medium with per-node capacity.
    pub half_duplex: bool,
    /// Probability in `[0, 1]` that a frame is lost after transmission.
    pub loss: f64,
    /// Maximum number of attached nodes, if the technology bounds it
    /// (a Bluetooth piconet allows eight).
    pub max_nodes: Option<u32>,
    /// Upper bound of the random backoff added when a sender finds the
    /// medium busy (half-duplex only).
    pub backoff_max: SimDuration,
}

impl SegmentConfig {
    /// A 10 Mbps Ethernet segment behind a repeater hub, as used in the
    /// paper's testbed. Half-duplex: data and ACK traffic share the medium.
    ///
    /// Frame overhead 38 bytes = preamble 8 + MAC header 14 + FCS 4 +
    /// inter-frame gap 12.
    pub fn ethernet_10mbps_hub() -> SegmentConfig {
        SegmentConfig {
            name: "ethernet-10mbps-hub".to_owned(),
            bits_per_second: 10_000_000,
            latency: SimDuration::from_micros(50),
            frame_overhead: 38,
            mtu: 1500,
            half_duplex: true,
            loss: 0.0,
            max_nodes: None,
            // Calibrated so bulk TCP lands near the paper's 7.9 Mbps
            // baseline: CSMA/CD backoff + collisions on a loaded hub.
            backoff_max: SimDuration::from_micros(150),
        }
    }

    /// A switched 100 Mbps Ethernet segment (full duplex).
    ///
    /// Full-duplex segments never serialize transmissions through the
    /// medium's busy window, so frames emitted at the same instant also
    /// *arrive* at the same instant, as one same-tick run of the
    /// scheduler. Half-duplex media (hubs, piconets, mote radios) space
    /// arrivals out.
    pub fn ethernet_100mbps_switch() -> SegmentConfig {
        SegmentConfig {
            name: "ethernet-100mbps-switch".to_owned(),
            bits_per_second: 100_000_000,
            latency: SimDuration::from_micros(20),
            frame_overhead: 38,
            mtu: 1500,
            half_duplex: false,
            loss: 0.0,
            max_nodes: None,
            backoff_max: SimDuration::ZERO,
        }
    }

    /// A Bluetooth 1.2 piconet: 723 kbps asymmetric rate, at most eight
    /// attached devices, a few milliseconds of latency, small MTU.
    pub fn bluetooth_piconet() -> SegmentConfig {
        SegmentConfig {
            name: "bluetooth-piconet".to_owned(),
            bits_per_second: 723_000,
            latency: SimDuration::from_millis(3),
            frame_overhead: 12,
            mtu: 672,
            half_duplex: true,
            loss: 0.0,
            max_nodes: Some(8),
            backoff_max: SimDuration::from_millis(1),
        }
    }

    /// A Berkeley-mote-era radio channel: 38.4 kbps shared medium with
    /// noticeable loss, tiny MTU.
    pub fn mote_radio() -> SegmentConfig {
        SegmentConfig {
            name: "mote-radio".to_owned(),
            bits_per_second: 38_400,
            latency: SimDuration::from_millis(1),
            frame_overhead: 7,
            mtu: 36,
            half_duplex: true,
            loss: 0.02,
            max_nodes: None,
            backoff_max: SimDuration::from_millis(4),
        }
    }

    /// An in-host loopback: effectively infinite bandwidth, no latency.
    /// Used when a mapper and a native device are co-located on one node.
    pub fn loopback() -> SegmentConfig {
        SegmentConfig {
            name: "loopback".to_owned(),
            bits_per_second: 10_000_000_000,
            latency: SimDuration::ZERO,
            frame_overhead: 0,
            mtu: 65_535,
            half_duplex: false,
            loss: 0.0,
            max_nodes: None,
            backoff_max: SimDuration::ZERO,
        }
    }

    /// Returns a copy with the given loss probability; convenient for
    /// failure-injection tests.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> SegmentConfig {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        self.loss = loss;
        self
    }

    /// Serialization time for a frame carrying `payload_bytes` of payload
    /// (frame overhead added automatically).
    pub fn frame_time(&self, payload_bytes: usize) -> SimDuration {
        SimDuration::transmission(
            payload_bytes as u64 + u64::from(self.frame_overhead),
            self.bits_per_second,
        )
    }
}

/// Outcome of scheduling one frame on a segment: when transmission starts,
/// when it ends (medium is held until then), and when receivers see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxTiming {
    /// Instant the frame starts occupying the medium.
    pub start: SimTime,
    /// Instant the medium is released.
    pub end: SimTime,
    /// Instant the frame arrives at receivers.
    pub arrival: SimTime,
}

/// Computes the transmission timing for a frame on a shared medium.
///
/// `busy_until` is the instant the medium frees up; `backoff` is the random
/// backoff already drawn by the caller (only applied when the medium is
/// busy, and only meaningful for half-duplex media).
pub fn schedule_tx(
    config: &SegmentConfig,
    now: SimTime,
    busy_until: SimTime,
    backoff: SimDuration,
    payload_bytes: usize,
) -> TxTiming {
    let contended = config.half_duplex && busy_until > now;
    let start = if config.half_duplex {
        let base = now.max(busy_until);
        if contended {
            base + backoff
        } else {
            base
        }
    } else {
        // Idealized switched medium: each sender has its own capacity, but
        // still pays serialization time.
        now
    };
    let end = start + config.frame_time(payload_bytes);
    TxTiming {
        start,
        end,
        arrival: end + config.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_time_includes_overhead() {
        let cfg = SegmentConfig::ethernet_10mbps_hub();
        // (1462 + 38) bytes * 8 bits / 10 Mbps = 1.2 ms.
        assert_eq!(cfg.frame_time(1462), SimDuration::from_micros(1200));
    }

    #[test]
    fn idle_medium_starts_immediately() {
        let cfg = SegmentConfig::ethernet_10mbps_hub();
        let t = schedule_tx(
            &cfg,
            SimTime::from_millis(5),
            SimTime::ZERO,
            SimDuration::ZERO,
            100,
        );
        assert_eq!(t.start, SimTime::from_millis(5));
        assert!(t.end > t.start);
        assert_eq!(t.arrival, t.end + cfg.latency);
    }

    #[test]
    fn busy_medium_defers_and_backs_off() {
        let cfg = SegmentConfig::ethernet_10mbps_hub();
        let busy = SimTime::from_millis(10);
        let t = schedule_tx(
            &cfg,
            SimTime::from_millis(5),
            busy,
            SimDuration::from_micros(30),
            100,
        );
        assert_eq!(t.start, busy + SimDuration::from_micros(30));
    }

    #[test]
    fn full_duplex_ignores_contention() {
        let cfg = SegmentConfig::ethernet_100mbps_switch();
        let t = schedule_tx(
            &cfg,
            SimTime::from_millis(5),
            SimTime::from_millis(50),
            SimDuration::from_micros(30),
            100,
        );
        assert_eq!(t.start, SimTime::from_millis(5));
    }

    #[test]
    fn piconet_limits_membership() {
        assert_eq!(SegmentConfig::bluetooth_piconet().max_nodes, Some(8));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn with_loss_validates_range() {
        let _ = SegmentConfig::loopback().with_loss(1.5);
    }
}
