//! Incident bundles: deterministic evidence snapshots cut by the
//! trigger plane.
//!
//! The flight recorder (the [`Trace`](crate::Trace)'s span ring
//! journal, always on) keeps the most recent trace window at full
//! fidelity; this module is the *consumer* of that window. When
//! [`World::enable_flight_recorder`](crate::World) is on, a **trigger
//! plane** watches every telemetry sample for:
//!
//! * a `BurnRateRule` ok→firing transition on any SLO objective,
//! * a change in the doctor's ranked `top_offenders` list.
//!
//! Each trigger snapshots one [`IncidentBundle`]: the trace window
//! around the trigger, the live telemetry window, the SLO state-machine
//! history, the doctor report, and a topology digest — everything an
//! incident investigation needs, in one artifact. Because every field
//! derives from virtual time and seeded state, [`IncidentBundle::to_json`]
//! is byte-deterministic: two runs of the same seeded world produce
//! byte-identical bundles, which CI enforces with a double-run diff.

use crate::json::{Json, Layout};
use crate::time::{SimDuration, SimTime};
use crate::trace::SpanRecord;
use crate::AlertTransition;

/// What tripped the trigger plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// An SLO objective transitioned ok/warning → firing.
    SloFiring,
    /// The doctor's ranked offender list changed.
    OffenderRankChange,
}

impl TriggerKind {
    /// Stable kebab-case name, used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerKind::SloFiring => "slo-firing",
            TriggerKind::OffenderRankChange => "offender-rank-change",
        }
    }
}

/// How far back from the trigger instant the bundled trace window
/// reaches: spans whose effective end is within this window are
/// included.
pub(crate) const TRACE_WINDOW: SimDuration = SimDuration::from_secs(5);

/// Maximum bundles kept per world; later triggers are counted
/// (`incident.triggers` keeps growing) but not snapshotted.
pub(crate) const MAX_BUNDLES: usize = 4;

/// A deterministic summary of the world's static structure, so a bundle
/// records *what* was running, not just what it measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyDigest {
    /// Number of nodes.
    pub nodes: u64,
    /// Number of process slots (including removed ones).
    pub processes: u64,
    /// Per-segment labels, `seg{i}:{name}`, in segment order.
    pub segments: Vec<String>,
    /// FNV-1a hash over node names, process names, and segment labels —
    /// a cheap fingerprint that two topologies can be compared by.
    pub digest: u64,
}

impl TopologyDigest {
    /// Builds the digest from name lists (in stable declaration order).
    pub fn new<'a>(
        nodes: impl Iterator<Item = &'a str>,
        processes: impl Iterator<Item = &'a str>,
        segments: Vec<String>,
    ) -> TopologyDigest {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |s: &str| {
            for b in s.bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= 0xff;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let mut node_count = 0u64;
        for n in nodes {
            node_count += 1;
            feed(n);
        }
        let mut proc_count = 0u64;
        for p in processes {
            proc_count += 1;
            feed(p);
        }
        for s in &segments {
            feed(s);
        }
        TopologyDigest {
            nodes: node_count,
            processes: proc_count,
            segments,
            digest: hash,
        }
    }
}

/// One incident's complete evidence snapshot. See the module docs.
#[derive(Debug, Clone)]
pub struct IncidentBundle {
    /// What tripped the trigger plane.
    pub kind: TriggerKind,
    /// Human-readable trigger description (objective name, offender
    /// delta).
    pub detail: String,
    /// Virtual time of the trigger.
    pub at: SimTime,
    /// Bundle sequence number within its world, from 0.
    pub seq: u64,
    /// The trace window around the trigger (spans whose effective end
    /// falls within the 5 s trace window before the trigger).
    pub spans: Vec<SpanRecord>,
    /// Cumulative flight-recorder span overwrites at capture time —
    /// how much history had already been recycled.
    pub ring_overwrites: u64,
    /// The live telemetry window ([`crate::TelemetryWindow::to_json`]);
    /// `None` if telemetry off.
    pub telemetry: Option<Json>,
    /// Full SLO state-machine history up to the trigger.
    pub transitions: Vec<AlertTransition>,
    /// The doctor report at capture time
    /// ([`crate::HealthReport::to_json`]); `None` if telemetry off.
    pub doctor: Option<Json>,
    /// What was running.
    pub topology: TopologyDigest,
}

impl IncidentBundle {
    /// The bundle as one deterministic JSON value: stable key order,
    /// integer-only numbers, the telemetry and doctor sub-reports nested
    /// in place. Two runs of the same seeded world produce
    /// byte-identical output.
    pub fn to_json(&self) -> Json {
        let topology = &self.topology;
        let trace = self.spans.iter().map(|s| {
            Json::inline()
                .with("id", s.id.0)
                .with("parent", s.parent.map_or(0, |p| p.0))
                .with("corr", format!("{:#x}", s.corr))
                .with("source", &*s.source)
                .with("stage", s.stage)
                .with("detail", s.detail.to_string())
                .with("start_ns", s.start.as_nanos())
                .with("end_ns", s.end.map(SimTime::as_nanos))
        });
        let slo_history = self.transitions.iter().map(|t| {
            Json::inline()
                .with("at_ns", t.at.as_nanos())
                .with("objective", &t.objective)
                .with("from", t.from.as_str())
                .with("to", t.to.as_str())
        });
        Json::block()
            .with(
                "trigger",
                Json::block()
                    .with("kind", self.kind.as_str())
                    .with("detail", &self.detail)
                    .with("at_ns", self.at.as_nanos())
                    .with("seq", self.seq),
            )
            .with(
                "topology",
                Json::block()
                    .with("nodes", topology.nodes)
                    .with("processes", topology.processes)
                    .with("segments", Json::array(Layout::Inline, &topology.segments))
                    .with("digest", format!("{:#018x}", topology.digest)),
            )
            .with(
                "flight_recorder",
                Json::inline()
                    .with("spans", self.spans.len())
                    .with("ring_overwrites", self.ring_overwrites),
            )
            .with("trace", Json::array(Layout::Block, trace))
            .with("slo_history", Json::array(Layout::Block, slo_history))
            .with("telemetry", self.telemetry.clone())
            .with("doctor", self.doctor.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanId;
    use crate::AlertState;

    fn demo_bundle() -> IncidentBundle {
        IncidentBundle {
            kind: TriggerKind::SloFiring,
            detail: "hub-latency: ok -> firing".into(),
            at: SimTime::from_millis(30_500),
            seq: 0,
            spans: vec![SpanRecord {
                id: SpanId(1),
                parent: None,
                corr: 0x1_0000_0001,
                source: "rt0".into(),
                stage: "queue.wait",
                detail: "port=\"clicks\"".into(),
                start: SimTime::from_millis(30_000),
                end: Some(SimTime::from_millis(30_001)),
            }],
            ring_overwrites: 7,
            telemetry: None,
            transitions: vec![AlertTransition {
                at: SimTime::from_millis(30_500),
                objective: "hub-latency".into(),
                from: AlertState::Ok,
                to: AlertState::Firing,
            }],
            doctor: None,
            topology: TopologyDigest::new(
                ["h1", "h2"].into_iter(),
                ["rt0", "mapper"].into_iter(),
                vec!["seg0:ethernet-10mbps-hub".into()],
            ),
        }
    }

    #[test]
    fn bundle_json_is_deterministic_and_escaped() {
        let b = demo_bundle();
        let j1 = b.to_json().document();
        let j2 = b.clone().to_json().document();
        assert_eq!(j1, j2);
        assert!(j1.contains("\"kind\": \"slo-firing\""));
        assert!(j1.contains("\"seq\": 0"));
        assert!(j1.contains("\\\"clicks\\\""), "details are JSON-escaped");
        assert!(j1.contains("\"from\": \"ok\", \"to\": \"firing\""));
        assert!(j1.contains("\"ring_overwrites\": 7"));
        assert!(j1.contains("\"telemetry\": null"));
    }

    #[test]
    fn topology_digest_fingerprints_names() {
        let a = TopologyDigest::new(["h1"].into_iter(), ["p"].into_iter(), vec![]);
        let b = TopologyDigest::new(["h2"].into_iter(), ["p"].into_iter(), vec![]);
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.nodes, 1);
        assert_eq!(a.processes, 1);
        // Boundary marker: ["ab"] and ["a","b"] must not collide.
        let c = TopologyDigest::new(["ab"].into_iter(), [].into_iter(), vec![]);
        let d = TopologyDigest::new(["a", "b"].into_iter(), [].into_iter(), vec![]);
        assert_ne!(c.digest, d.digest);
    }
}
