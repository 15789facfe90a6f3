//! SLO burn-rate alerting and the federation health doctor.
//!
//! Sits on top of [`crate::timeseries`]: an [`SloEngine`] re-evaluates a
//! set of [`Objective`]s against the sampler's windowed series after
//! every sample, driving a deterministic ok → warning → firing alert
//! state machine whose transitions land in the trace as instant spans.
//! The [`HealthReport`] "doctor" aggregates alerts, per-bridge liveness
//! watermarks, segment utilization trends and scheduler health into one
//! deterministic JSON document.
//!
//! All math is integer-only. Error budgets are expressed in parts per
//! million (ppm); burn rates in *milli* (1000 = consuming the budget at
//! exactly the sustainable rate). A classic multi-window rule such as
//! "14.4× burn over 1 h and 5 m" becomes `factor_milli: 14_400` with
//! `long_intervals`/`short_intervals` counted in sampler intervals.

use std::collections::BTreeMap;

use crate::json::{Json, Layout};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::{SamplerConfig, Telemetry};
use crate::trace::{MetricId, Metrics, SegmentStats, Trace};

/// What an [`Objective`] measures, over the sampler's windowed series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloKind {
    /// Fraction of histogram observations above a latency threshold.
    /// The threshold should sit on a histogram bucket bound (the 1–2–5
    /// series) for exact accounting; off-bound thresholds round down.
    LatencyAbove {
        /// The histogram, e.g. `rt0.transport_latency`.
        histogram: MetricId,
        /// Threshold in nanoseconds.
        threshold_ns: u64,
        /// Error budget: tolerated fraction above threshold, in ppm.
        budget_ppm: u64,
    },
    /// Ratio of an error counter to a total counter.
    ErrorRatio {
        /// Error counter.
        errors: MetricId,
        /// Total counter.
        total: MetricId,
        /// Error budget in ppm.
        budget_ppm: u64,
    },
    /// Liveness of a traffic counter: a sampling interval with a zero
    /// delta is a *bad* interval. An absent series (nothing sampled
    /// yet) counts as healthy, so startup is graceful.
    Liveness {
        /// Traffic counter, e.g. `bridge.upnp.traffic`.
        counter: MetricId,
        /// Error budget: tolerated fraction of silent intervals, ppm.
        budget_ppm: u64,
    },
}

impl SloKind {
    /// Error fraction in ppm over the last `n` sampler intervals.
    fn error_frac_ppm(&self, telemetry: &Telemetry, n: usize) -> u64 {
        match self {
            SloKind::LatencyAbove {
                histogram,
                threshold_ns,
                ..
            } => {
                let Some(series) = telemetry.histogram_series(*histogram) else {
                    return 0;
                };
                let w = series.window(n);
                if w.count == 0 {
                    return 0;
                }
                w.above_ns(*threshold_ns).saturating_mul(1_000_000) / w.count
            }
            SloKind::ErrorRatio { errors, total, .. } => {
                let err = telemetry
                    .counter_series(*errors)
                    .map(|s| s.window_sum(n).0)
                    .unwrap_or(0);
                let tot = telemetry
                    .counter_series(*total)
                    .map(|s| s.window_sum(n).0)
                    .unwrap_or(0);
                if tot == 0 {
                    return 0;
                }
                err.saturating_mul(1_000_000) / tot
            }
            SloKind::Liveness { counter, .. } => {
                let Some(series) = telemetry.counter_series(*counter) else {
                    return 0;
                };
                let (_, intervals, zeros) = series.window_sum(n);
                if intervals == 0 {
                    return 0;
                }
                (zeros as u64).saturating_mul(1_000_000) / intervals as u64
            }
        }
    }

    fn budget_ppm(&self) -> u64 {
        match self {
            SloKind::LatencyAbove { budget_ppm, .. }
            | SloKind::ErrorRatio { budget_ppm, .. }
            | SloKind::Liveness { budget_ppm, .. } => (*budget_ppm).max(1),
        }
    }
}

/// A multi-window burn-rate rule: trips when the burn rate over *both*
/// the long and the short window is at least `factor_milli`. The short
/// window makes the alert reset quickly once the fault clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurnRateRule {
    /// Long window, in sampler intervals.
    pub long_intervals: usize,
    /// Short window, in sampler intervals.
    pub short_intervals: usize,
    /// Minimum burn rate, in milli (1000 = exactly sustainable).
    pub factor_milli: u64,
}

/// One service-level objective with its alerting rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Objective {
    /// Unique objective name, e.g. `upnp-liveness`.
    pub name: String,
    /// The federation entity this objective guards, e.g. `bridge:upnp`
    /// or a segment label — what the doctor blames when it burns.
    pub subject: String,
    /// What is measured.
    pub kind: SloKind,
    /// Rule for the warning state.
    pub warning: BurnRateRule,
    /// Rule for the firing state (checked first; usually a higher
    /// factor or longer confirmation than `warning`).
    pub firing: BurnRateRule,
}

/// Alert state of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Burn rate below every rule.
    Ok,
    /// The warning rule tripped.
    Warning,
    /// The firing rule tripped.
    Firing,
}

impl AlertState {
    /// Stable lowercase name, used in span stages and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Firing => "firing",
        }
    }

    /// Stage of the span recording a transition into this state.
    fn stage(self) -> &'static str {
        match self {
            AlertState::Ok => "alert.ok",
            AlertState::Warning => "alert.warning",
            AlertState::Firing => "alert.firing",
        }
    }

    fn as_gauge(self) -> i64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Warning => 1,
            AlertState::Firing => 2,
        }
    }
}

/// Current status of one objective, refreshed every evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertStatus {
    /// Current state.
    pub state: AlertState,
    /// When the current state was entered.
    pub since: SimTime,
    /// Burn rate over the firing rule's long window, in milli.
    pub burn_long_milli: u64,
    /// Burn rate over the firing rule's short window, in milli.
    pub burn_short_milli: u64,
}

/// One recorded state transition, for assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// Objective name.
    pub objective: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
}

/// Evaluates objectives against the telemetry store after every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEngine {
    objectives: Vec<Objective>,
    status: Vec<AlertStatus>,
    /// Each objective's `slo.<name>.state` gauge.
    state_gauges: Vec<MetricId>,
    transitions: Vec<AlertTransition>,
}

impl SloEngine {
    /// Creates an engine with every objective in the `Ok` state.
    pub fn new(objectives: Vec<Objective>) -> SloEngine {
        let status = objectives
            .iter()
            .map(|_| AlertStatus {
                state: AlertState::Ok,
                since: SimTime::ZERO,
                burn_long_milli: 0,
                burn_short_milli: 0,
            })
            .collect();
        let state_gauges = objectives
            .iter()
            .map(|o| MetricId::new(&format!("slo.{}.state", o.name)))
            .collect();
        SloEngine {
            objectives,
            status,
            state_gauges,
            transitions: Vec::new(),
        }
    }

    /// The configured objectives.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Status of each objective, index-aligned with [`objectives`].
    ///
    /// [`objectives`]: SloEngine::objectives
    pub fn status(&self) -> &[AlertStatus] {
        &self.status
    }

    /// Every state transition so far, in evaluation order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Re-evaluates every objective against the current windows.
    /// Transitions are recorded as instant `slo-engine` spans plus the
    /// `slo.transitions` counter; `slo.<name>.state` gauges and the
    /// `slo.firing` gauge are refreshed on every call.
    pub fn evaluate(&mut self, now: SimTime, telemetry: &Telemetry, trace: &mut Trace) {
        let mut firing = 0i64;
        let objectives = self.objectives.iter().zip(&self.state_gauges);
        for ((obj, &state_gauge), status) in objectives.zip(self.status.iter_mut()) {
            let budget = obj.kind.budget_ppm();
            let burn = |intervals: usize| -> u64 {
                obj.kind
                    .error_frac_ppm(telemetry, intervals)
                    .saturating_mul(1_000)
                    / budget
            };
            let trips = |rule: &BurnRateRule| -> bool {
                burn(rule.long_intervals) >= rule.factor_milli
                    && burn(rule.short_intervals) >= rule.factor_milli
            };
            let next = if trips(&obj.firing) {
                AlertState::Firing
            } else if trips(&obj.warning) {
                AlertState::Warning
            } else {
                AlertState::Ok
            };
            status.burn_long_milli = burn(obj.firing.long_intervals);
            status.burn_short_milli = burn(obj.firing.short_intervals);
            if next != status.state {
                let from = status.state;
                trace.span(
                    0,
                    now,
                    "slo-engine",
                    next.stage(),
                    format!(
                        "{}: {} -> {} (burn {}m/{}m, subject {})",
                        obj.name,
                        from.as_str(),
                        next.as_str(),
                        status.burn_long_milli,
                        status.burn_short_milli,
                        obj.subject
                    ),
                );
                trace.metrics_mut().counter_add("slo.transitions", 1);
                self.transitions.push(AlertTransition {
                    at: now,
                    objective: obj.name.clone(),
                    from,
                    to: next,
                });
                status.state = next;
                status.since = now;
            }
            trace.metrics_mut().gauge_set(state_gauge, next.as_gauge());
            if next == AlertState::Firing {
                firing += 1;
            }
        }
        trace.metrics_mut().gauge_set("slo.firing", firing);
    }
}

/// Full configuration of the telemetry plane
/// ([`World::enable_telemetry`](crate::World::enable_telemetry)).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Sampler interval and ring capacity.
    pub sampler: SamplerConfig,
    /// Objectives for the SLO engine.
    pub objectives: Vec<Objective>,
    /// A bridge whose last-traffic watermark is older than this is
    /// reported silent by the doctor.
    pub liveness_timeout: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            sampler: SamplerConfig::default(),
            objectives: Vec::new(),
            liveness_timeout: SimDuration::from_secs(5),
        }
    }
}

/// One segment's identity and whole-run stats, as fed to the doctor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSample {
    /// The segment's `segment.segN.busy_ns` gauge.
    pub busy_ns: MetricId,
    /// Human label, e.g. `seg0:ethernet-10mbps-hub`.
    pub label: String,
    /// Whole-run transmission stats.
    pub stats: SegmentStats,
}

/// Liveness of one bridge, from its last-traffic watermark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeHealth {
    /// Platform name, e.g. `upnp`.
    pub platform: String,
    /// Virtual time of the last translated traffic, in nanoseconds.
    pub last_traffic_ns: u64,
    /// Idle time since then, in nanoseconds.
    pub idle_ns: u64,
    /// `true` when idle longer than the liveness timeout.
    pub silent: bool,
}

/// Utilization health of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentHealth {
    /// Segment label.
    pub label: String,
    /// Trailing-window utilization in milli (1000 = fully busy); falls
    /// back to the whole-run mean when the sampler has too few points.
    pub utilization_milli: u64,
    /// Whole-run frames transmitted.
    pub frames: u64,
    /// Whole-run frames dropped by the loss model.
    pub dropped: u64,
}

/// One objective's status inside the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertReport {
    /// Objective name.
    pub name: String,
    /// Guarded entity.
    pub subject: String,
    /// Current state.
    pub state: AlertState,
    /// When the state was entered, in nanoseconds.
    pub since_ns: u64,
    /// Burn over the firing rule's long window, milli.
    pub burn_long_milli: u64,
    /// Burn over the firing rule's short window, milli.
    pub burn_short_milli: u64,
}

/// One ranked problem in the federation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offender {
    /// Problem class: `slo`, `bridge-silent` or `segment-hot`.
    pub kind: String,
    /// Objective name, bridge platform, or segment label.
    pub name: String,
    /// The blamed federation entity.
    pub subject: String,
    /// Severity in milli, comparable across kinds (1000 ≈ at limit).
    pub severity_milli: u64,
    /// Where the time went: `{component}/{kind}` from the attribution
    /// plane (e.g. `process:umiddle-runtime/queue`), empty when
    /// attribution is off or has nothing folded.
    pub dominant: String,
    /// Trace correlation id of an exemplar journey for this offender —
    /// a latency SLO's slow-tail exemplar, or the blamed component's
    /// longest-span corr. Zero when no exemplar exists.
    pub exemplar_corr: u64,
}

/// The federation doctor's aggregated health report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Virtual time the report was generated, in nanoseconds.
    pub generated_ns: u64,
    /// Sampler interval in nanoseconds.
    pub interval_ns: u64,
    /// Samples taken so far.
    pub samples: u64,
    /// Events pending in the scheduler right now.
    pub events_pending: u64,
    /// Sampled `sched.events_pending` trend, oldest first.
    pub events_pending_trend: Vec<i64>,
    /// p99 scheduler lag (pop time minus due time), nanoseconds.
    pub sched_lag_p99_ns: u64,
    /// Maximum scheduler lag, nanoseconds.
    pub sched_lag_max_ns: u64,
    /// Per-bridge liveness, sorted by platform.
    pub bridges: Vec<BridgeHealth>,
    /// Per-segment utilization, sorted busiest first.
    pub segments: Vec<SegmentHealth>,
    /// Per-objective status, in configuration order.
    pub alerts: Vec<AlertReport>,
    /// Ranked problems, most severe first.
    pub top_offenders: Vec<Offender>,
    /// Busiest segment's label, if any segments exist.
    pub top_segment: Option<String>,
}

/// How many trailing samples the doctor uses for segment utilization
/// and how hot (in milli) a segment must be to rank as an offender.
const SEGMENT_TREND_INTERVALS: usize = 8;
const SEGMENT_HOT_MILLI: u64 = 800;

impl HealthReport {
    /// Builds the report from the live telemetry plane. Pure function
    /// of its inputs; two identical runs produce identical reports.
    /// `attribution` (when the attribution plane is on) annotates each
    /// ranked offender with its dominant time component and an exemplar
    /// corr.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        now: SimTime,
        telemetry: &Telemetry,
        engine: &SloEngine,
        metrics: &Metrics,
        segments: &[SegmentSample],
        events_pending: u64,
        liveness_timeout: SimDuration,
        attribution: Option<&crate::attrib::AttributionReport>,
    ) -> HealthReport {
        let now_ns = now.as_nanos();
        let timeout_ns = liveness_timeout.as_nanos().max(1);

        let mut bridges = Vec::new();
        for (name, v) in metrics.gauges() {
            if let Some(rest) = name.strip_prefix("bridge.") {
                if let Some(platform) = rest.strip_suffix(".last_traffic_ns") {
                    let last = v.max(0) as u64;
                    let idle = now_ns.saturating_sub(last);
                    bridges.push(BridgeHealth {
                        platform: platform.to_owned(),
                        last_traffic_ns: last,
                        idle_ns: idle,
                        silent: idle > timeout_ns,
                    });
                }
            }
        }

        let interval_ns = telemetry.interval().as_nanos();
        let mut seg_health: Vec<SegmentHealth> = segments
            .iter()
            .map(|s| {
                let trailing = telemetry.gauge_series(s.busy_ns).and_then(|series| {
                    let w = (series.len().saturating_sub(1)).min(SEGMENT_TREND_INTERVALS);
                    if w == 0 {
                        return None;
                    }
                    let newest = series.last_value()?;
                    let oldest = series.value_back(w)?;
                    let delta = (newest - oldest).max(0) as u64;
                    Some(delta.saturating_mul(1_000) / (w as u64 * interval_ns).max(1))
                });
                let utilization_milli = trailing.unwrap_or_else(|| {
                    s.stats.busy.as_nanos().saturating_mul(1_000) / now_ns.max(1)
                });
                SegmentHealth {
                    label: s.label.clone(),
                    utilization_milli,
                    frames: s.stats.frames,
                    dropped: s.stats.dropped,
                }
            })
            .collect();
        seg_health.sort_by(|a, b| {
            b.utilization_milli
                .cmp(&a.utilization_milli)
                .then_with(|| a.label.cmp(&b.label))
        });

        let events_pending_trend = telemetry
            .gauge_series(crate::metric_id!("sched.events_pending"))
            .map(|s| s.values().collect())
            .unwrap_or_default();
        let (sched_lag_p99_ns, sched_lag_max_ns) = metrics
            .histogram(crate::metric_id!("sched.lag_ns"))
            .map(|h| {
                (
                    h.quantile_bound_ns(0.99).unwrap_or(0),
                    h.quantile_bound_ns(1.0).unwrap_or(0),
                )
            })
            .unwrap_or((0, 0));

        let alerts: Vec<AlertReport> = engine
            .objectives()
            .iter()
            .zip(engine.status().iter())
            .map(|(o, s)| AlertReport {
                name: o.name.clone(),
                subject: o.subject.clone(),
                state: s.state,
                since_ns: s.since.as_nanos(),
                burn_long_milli: s.burn_long_milli,
                burn_short_milli: s.burn_short_milli,
            })
            .collect();

        let mut top_offenders = Vec::new();
        for a in &alerts {
            if a.state != AlertState::Ok {
                top_offenders.push(Offender {
                    kind: "slo".to_owned(),
                    name: a.name.clone(),
                    subject: a.subject.clone(),
                    severity_milli: a.burn_long_milli,
                    dominant: String::new(),
                    exemplar_corr: 0,
                });
            }
        }
        for b in &bridges {
            if b.silent {
                top_offenders.push(Offender {
                    kind: "bridge-silent".to_owned(),
                    name: b.platform.clone(),
                    subject: format!("bridge:{}", b.platform),
                    severity_milli: b.idle_ns.saturating_mul(1_000) / timeout_ns,
                    dominant: String::new(),
                    exemplar_corr: 0,
                });
            }
        }
        for s in &seg_health {
            if s.utilization_milli >= SEGMENT_HOT_MILLI {
                top_offenders.push(Offender {
                    kind: "segment-hot".to_owned(),
                    name: s.label.clone(),
                    subject: s.label.clone(),
                    severity_milli: s.utilization_milli,
                    dominant: String::new(),
                    exemplar_corr: 0,
                });
            }
        }
        top_offenders.sort_by(|a, b| {
            b.severity_milli
                .cmp(&a.severity_milli)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.name.cmp(&b.name))
        });

        // Annotate each ranked offender with where the time actually
        // went. A latency SLO pulls an exemplar from its histogram's
        // slow tail (the first journey to cross a bucket above the
        // threshold). Subjects that map onto an attribution component
        // (`bridge:X`) read their own row; an unmapped
        // subject — a shared segment, typically — is annotated with
        // the federation's hottest component, the doctor's best answer
        // to "whose time is it".
        for o in &mut top_offenders {
            if o.kind == "slo" {
                if let Some(obj) = engine.objectives().iter().find(|x| x.name == o.name) {
                    if let SloKind::LatencyAbove {
                        histogram,
                        threshold_ns,
                        ..
                    } = &obj.kind
                    {
                        if let Some(h) = metrics.histogram(*histogram) {
                            o.exemplar_corr = h.exemplar_above_ns(*threshold_ns).unwrap_or(0);
                        }
                    }
                }
            }
            let Some(attr) = attribution else {
                continue;
            };
            let mapped = if o.subject.starts_with("bridge:") {
                attr.components
                    .get_key_value(o.subject.as_str())
                    .map(|(k, v)| (k.as_str(), v))
            } else {
                None
            };
            if let Some((key, c)) = mapped.or_else(|| attr.top_component()) {
                o.dominant = format!("{key}/{}", c.dominant());
                if o.exemplar_corr == 0 {
                    o.exemplar_corr = c.exemplar_corr;
                }
            }
        }

        HealthReport {
            generated_ns: now_ns,
            interval_ns,
            samples: telemetry.samples(),
            events_pending,
            events_pending_trend,
            sched_lag_p99_ns,
            sched_lag_max_ns,
            bridges,
            top_segment: seg_health.first().map(|s| s.label.clone()),
            segments: seg_health,
            alerts,
            top_offenders,
        }
    }

    /// The report as a deterministic JSON value (stable field order,
    /// integers only), byte-identical across identical runs.
    pub fn to_json(&self) -> Json {
        let bridges = self.bridges.iter().map(|b| {
            Json::inline()
                .with("platform", &b.platform)
                .with("last_traffic_ns", b.last_traffic_ns)
                .with("idle_ns", b.idle_ns)
                .with("silent", b.silent)
        });
        let segments = self.segments.iter().map(|s| {
            Json::inline()
                .with("label", &s.label)
                .with("utilization_milli", s.utilization_milli)
                .with("frames", s.frames)
                .with("dropped", s.dropped)
        });
        let alerts = self.alerts.iter().map(|a| {
            Json::inline()
                .with("name", &a.name)
                .with("subject", &a.subject)
                .with("state", a.state.as_str())
                .with("since_ns", a.since_ns)
                .with("burn_long_milli", a.burn_long_milli)
                .with("burn_short_milli", a.burn_short_milli)
        });
        let top_offenders = self.top_offenders.iter().map(|o| {
            Json::inline()
                .with("kind", &o.kind)
                .with("name", &o.name)
                .with("subject", &o.subject)
                .with("severity_milli", o.severity_milli)
                .with("dominant", &o.dominant)
                .with("exemplar_corr", o.exemplar_corr)
        });
        Json::block()
            .with("generated_ns", self.generated_ns)
            .with("interval_ns", self.interval_ns)
            .with("samples", self.samples)
            .with(
                "scheduler",
                Json::inline()
                    .with("events_pending", self.events_pending)
                    .with("lag_p99_ns", self.sched_lag_p99_ns)
                    .with("lag_max_ns", self.sched_lag_max_ns)
                    .with(
                        "pending_trend",
                        Json::array(Layout::Inline, self.events_pending_trend.iter().copied()),
                    ),
            )
            .with("bridges", Json::array(Layout::Block, bridges))
            .with("segments", Json::array(Layout::Block, segments))
            .with("alerts", Json::array(Layout::Block, alerts))
            .with("top_offenders", Json::array(Layout::Block, top_offenders))
            .with("top_segment", self.top_segment.as_ref())
    }

    /// Summary map for quick assertions: objective name → state.
    pub fn alert_states(&self) -> BTreeMap<&str, AlertState> {
        self.alerts
            .iter()
            .map(|a| (a.name.as_str(), a.state))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::SamplerConfig;

    fn sample_cfg(ms: u64) -> SamplerConfig {
        SamplerConfig {
            interval: SimDuration::from_millis(ms),
            window: 16,
        }
    }

    fn liveness_objective(counter: &str) -> Objective {
        Objective {
            name: "live".to_owned(),
            subject: "bridge:test".to_owned(),
            kind: SloKind::Liveness {
                counter: MetricId::new(counter),
                budget_ppm: 100_000,
            },
            warning: BurnRateRule {
                long_intervals: 4,
                short_intervals: 2,
                factor_milli: 2_500,
            },
            firing: BurnRateRule {
                long_intervals: 4,
                short_intervals: 2,
                factor_milli: 5_000,
            },
        }
    }

    #[test]
    fn liveness_objective_fires_when_counter_goes_silent() {
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut t = Telemetry::new(sample_cfg(100));
        let mut engine = SloEngine::new(vec![liveness_objective("traffic")]);
        metrics.counter_add("traffic", 1);
        t.sample(SimTime::ZERO, &metrics);
        // Four healthy intervals.
        for i in 1..=4u64 {
            metrics.counter_add("traffic", 1);
            t.sample(SimTime::from_millis(100 * i), &metrics);
            engine.evaluate(SimTime::from_millis(100 * i), &t, &mut trace);
        }
        assert_eq!(engine.status()[0].state, AlertState::Ok);
        // Silence: counter stops moving.
        let mut fired_at = None;
        for i in 5..=10u64 {
            let now = SimTime::from_millis(100 * i);
            t.sample(now, &metrics);
            engine.evaluate(now, &t, &mut trace);
            if fired_at.is_none() && engine.status()[0].state == AlertState::Firing {
                fired_at = Some(now);
            }
        }
        // 2/4 long-window zeros → 500000 ppm → burn 5000 milli, and the
        // short window is all-zero, so the rule trips at the 2nd silent
        // sample.
        assert_eq!(fired_at, Some(SimTime::from_millis(600)));
        let fired: Vec<_> = engine
            .transitions()
            .iter()
            .filter(|tr| tr.to == AlertState::Firing)
            .collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].objective, "live");
        // Ok → Warning (one silent interval) → Firing.
        assert_eq!(trace.metrics().counter("slo.transitions"), 2);
        assert_eq!(trace.metrics().gauge("slo.live.state"), 2);
        assert_eq!(trace.metrics().gauge("slo.firing"), 1);
        // The transition is visible as an instant slo-engine span.
        assert!(trace
            .spans()
            .any(|s| &*s.source == "slo-engine" && s.stage == "alert.firing"));
    }

    /// An objective resolves its metric's id before the metric exists.
    /// While nothing is written the absent series counts as healthy;
    /// once the counter appears and then goes silent, the objective
    /// fires off the same id.
    #[test]
    fn objective_on_a_metric_written_late_fires_once_it_burns() {
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut t = Telemetry::new(sample_cfg(100));
        let mut engine = SloEngine::new(vec![liveness_objective("late.traffic")]);
        let mut fired_at = None;
        for i in 0..=20u64 {
            let now = SimTime::from_millis(100 * i);
            if i == 10 {
                metrics.counter_add("late.traffic", 1);
            }
            t.sample(now, &metrics);
            engine.evaluate(now, &t, &mut trace);
            if i < 10 {
                assert_eq!(engine.status()[0].state, AlertState::Ok, "at {now}");
            }
            if fired_at.is_none() && engine.status()[0].state == AlertState::Firing {
                fired_at = Some(now);
            }
        }
        // The 1 s sighting is the baseline; the first silent interval
        // after it is the whole window, so it burns at 10x and fires.
        assert_eq!(fired_at, Some(SimTime::from_millis(1_100)));
        assert_eq!(trace.metrics().gauge("slo.live.state"), 2);
    }

    #[test]
    fn latency_objective_burns_proportionally_to_violations() {
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut t = Telemetry::new(sample_cfg(100));
        let obj = Objective {
            name: "lat".to_owned(),
            subject: "seg0".to_owned(),
            kind: SloKind::LatencyAbove {
                histogram: MetricId::new("h"),
                threshold_ns: 1_000_000,
                budget_ppm: 100_000,
            },
            warning: BurnRateRule {
                long_intervals: 4,
                short_intervals: 1,
                factor_milli: 1_000,
            },
            firing: BurnRateRule {
                long_intervals: 4,
                short_intervals: 1,
                factor_milli: 4_000,
            },
        };
        let mut engine = SloEngine::new(vec![obj]);
        // The histogram must exist at the baseline sample; a metric's
        // first sighting records a baseline and pushes no delta.
        metrics.observe("h", SimDuration::from_micros(10));
        t.sample(SimTime::ZERO, &metrics);
        // Interval with 1 of 2 observations above 1 ms: 500000 ppm over
        // a 100000 ppm budget → burn 5000 milli → firing.
        metrics.observe("h", SimDuration::from_micros(10));
        metrics.observe("h", SimDuration::from_millis(5));
        t.sample(SimTime::from_millis(100), &metrics);
        engine.evaluate(SimTime::from_millis(100), &t, &mut trace);
        assert_eq!(engine.status()[0].state, AlertState::Firing);
        assert_eq!(engine.status()[0].burn_long_milli, 5_000);
        // All-good interval brings the short window back under.
        for _ in 0..8 {
            metrics.observe("h", SimDuration::from_micros(10));
        }
        t.sample(SimTime::from_millis(200), &metrics);
        engine.evaluate(SimTime::from_millis(200), &t, &mut trace);
        assert_eq!(engine.status()[0].state, AlertState::Ok);
        assert_eq!(engine.transitions().len(), 2);
    }

    #[test]
    fn doctor_localizes_silent_bridge_and_hot_segment() {
        let mut metrics = Metrics::default();
        let mut t = Telemetry::new(sample_cfg(100));
        metrics.gauge_set("bridge.upnp.last_traffic_ns", 100_000_000);
        metrics.gauge_set(
            "bridge.bluetooth.last_traffic_ns",
            SimTime::from_secs(9).as_nanos() as i64,
        );
        // Hot segment: busy 95 of every 100 ms across the window.
        for i in 0..=9i64 {
            metrics.gauge_set("segment.seg0.busy_ns", i * 95_000_000);
            metrics.gauge_set("segment.seg1.busy_ns", i * 1_000_000);
            metrics.gauge_set("sched.events_pending", 10 + i);
            t.sample(SimTime::from_millis(100 * i as u64), &metrics);
        }
        let engine = SloEngine::new(Vec::new());
        let segs = vec![
            SegmentSample {
                busy_ns: MetricId::new("segment.seg0.busy_ns"),
                label: "seg0:ethernet-10mbps-hub".to_owned(),
                stats: SegmentStats::default(),
            },
            SegmentSample {
                busy_ns: MetricId::new("segment.seg1.busy_ns"),
                label: "seg1:bluetooth-piconet".to_owned(),
                stats: SegmentStats::default(),
            },
        ];
        let report = HealthReport::build(
            SimTime::from_secs(10),
            &t,
            &engine,
            &metrics,
            &segs,
            7,
            SimDuration::from_secs(5),
            None,
        );
        assert_eq!(report.bridges.len(), 2);
        let upnp = report
            .bridges
            .iter()
            .find(|b| b.platform == "upnp")
            .unwrap();
        assert!(upnp.silent, "9.9 s idle > 5 s timeout");
        let bt = report
            .bridges
            .iter()
            .find(|b| b.platform == "bluetooth")
            .unwrap();
        assert!(!bt.silent);
        assert_eq!(
            report.top_segment.as_deref(),
            Some("seg0:ethernet-10mbps-hub")
        );
        assert_eq!(report.segments[0].utilization_milli, 950);
        assert_eq!(report.events_pending, 7);
        assert_eq!(report.events_pending_trend.len(), 10);
        // Offenders: the hot segment and the silent bridge, ranked.
        assert_eq!(report.top_offenders.len(), 2);
        assert_eq!(report.top_offenders[0].kind, "bridge-silent");
        assert_eq!(report.top_offenders[1].kind, "segment-hot");
        let json = report.to_json().document();
        assert_eq!(json, report.to_json().document());
        assert!(json.contains("\"silent\": true"));
        assert!(json.ends_with("}\n"));
    }

    /// Equal-severity offenders rank on (kind, name), never on map
    /// iteration or insertion order: the incident trigger plane diffs
    /// consecutive rank lists, so a severity tie that re-shuffled the
    /// ranking would snapshot phantom `OffenderRankChange` bundles.
    #[test]
    fn doctor_offender_ranking_breaks_ties_deterministically() {
        let mut metrics = Metrics::default();
        let mut t = Telemetry::new(sample_cfg(100));
        // Silent bridge idle 7.5 s of a 5 s timeout: severity 1500.
        metrics.gauge_set(
            "bridge.upnp.last_traffic_ns",
            SimTime::from_millis(2_500).as_nanos() as i64,
        );
        // A second bridge silent exactly as long: severity 1500 too.
        metrics.gauge_set(
            "bridge.bluetooth.last_traffic_ns",
            SimTime::from_millis(2_500).as_nanos() as i64,
        );
        // Two equally hot segments, busy 90 of every 100 ms: 900 each,
        // and a third whose gauge climbs 150 ms per 100 ms: 1500, tied
        // with the silent bridges across offender kinds.
        for i in 0..=9i64 {
            metrics.gauge_set("segment.seg0.busy_ns", i * 90_000_000);
            metrics.gauge_set("segment.seg1.busy_ns", i * 90_000_000);
            metrics.gauge_set("segment.seg2.busy_ns", i * 150_000_000);
            t.sample(SimTime::from_millis(100 * i as u64), &metrics);
        }
        let engine = SloEngine::new(Vec::new());
        let segs = vec![
            SegmentSample {
                busy_ns: MetricId::new("segment.seg2.busy_ns"),
                label: "seg2:ethernet-100mbps-switch".to_owned(),
                stats: SegmentStats::default(),
            },
            SegmentSample {
                busy_ns: MetricId::new("segment.seg1.busy_ns"),
                label: "seg1:ethernet-100mbps-switch".to_owned(),
                stats: SegmentStats::default(),
            },
            SegmentSample {
                busy_ns: MetricId::new("segment.seg0.busy_ns"),
                label: "seg0:ethernet-100mbps-switch".to_owned(),
                stats: SegmentStats::default(),
            },
        ];
        let report = HealthReport::build(
            SimTime::from_secs(10),
            &t,
            &engine,
            &metrics,
            &segs,
            0,
            SimDuration::from_secs(5),
            None,
        );
        let ranked: Vec<(&str, &str, u64)> = report
            .top_offenders
            .iter()
            .map(|o| (o.kind.as_str(), o.name.as_str(), o.severity_milli))
            .collect();
        assert_eq!(
            ranked,
            vec![
                ("bridge-silent", "bluetooth", 1_500),
                ("bridge-silent", "upnp", 1_500),
                ("segment-hot", "seg2:ethernet-100mbps-switch", 1_500),
                ("segment-hot", "seg0:ethernet-100mbps-switch", 900),
                ("segment-hot", "seg1:ethernet-100mbps-switch", 900),
            ]
        );
    }

    /// Pins the engine's ordering guarantees across interleaved
    /// objectives: `transitions` is strictly ordered by evaluation time
    /// and, within one evaluation instant, by objective configuration
    /// order; `HealthReport::alert_states` is a `BTreeMap`, so its
    /// iteration order is the lexicographic name order regardless of
    /// how the objectives were configured or when they transitioned.
    #[test]
    fn alert_states_and_transitions_keep_total_order_across_interleaved_objectives() {
        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut t = Telemetry::new(sample_cfg(100));
        // Deliberately non-lexicographic configuration order.
        let objective = |name: &str, counter: &str| Objective {
            name: name.to_owned(),
            subject: format!("bridge:{name}"),
            ..liveness_objective(counter)
        };
        let mut engine = SloEngine::new(vec![
            objective("zeta", "c1"),
            objective("alpha", "c2"),
            objective("mid", "c3"),
        ]);
        for c in ["c1", "c2", "c3"] {
            metrics.counter_add(c, 1);
        }
        t.sample(SimTime::ZERO, &metrics);
        // Four healthy intervals, then zeta and mid go silent together
        // while alpha stays healthy two intervals longer — their
        // transitions interleave with alpha's.
        for i in 1..=10u64 {
            if i <= 4 {
                metrics.counter_add("c1", 1);
                metrics.counter_add("c3", 1);
            }
            if i <= 6 {
                metrics.counter_add("c2", 1);
            }
            let now = SimTime::from_millis(100 * i);
            t.sample(now, &metrics);
            engine.evaluate(now, &t, &mut trace);
        }
        let seen: Vec<(u64, &str, AlertState)> = engine
            .transitions()
            .iter()
            .map(|tr| (tr.at.as_nanos(), tr.objective.as_str(), tr.to))
            .collect();
        // Times never decrease, and same-instant transitions follow the
        // configuration order (zeta before mid — alpha transitions at
        // its own, later instants).
        for pair in seen.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "transition log out of order: {seen:?}"
            );
        }
        let config_index = |name: &str| {
            ["zeta", "alpha", "mid"]
                .iter()
                .position(|n| *n == name)
                .unwrap()
        };
        for pair in seen.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(
                    config_index(pair[0].1) < config_index(pair[1].1),
                    "same-instant transitions must follow configuration order: {seen:?}"
                );
            }
        }
        // zeta and mid walked Ok→Warning→Firing in lockstep; alpha
        // followed two intervals later.
        let per = |name: &str| {
            seen.iter()
                .filter(|(_, n, _)| *n == name)
                .map(|&(at, _, to)| (at, to))
                .collect::<Vec<_>>()
        };
        assert_eq!(per("zeta"), per("mid"));
        assert_eq!(per("zeta").len(), 2);
        assert_eq!(per("alpha").len(), 2);
        assert!(per("alpha")[0].0 > per("zeta")[1].0);

        // The report's summary map re-sorts lexicographically.
        let report = HealthReport::build(
            SimTime::from_secs(1),
            &t,
            &engine,
            &metrics,
            &[],
            0,
            SimDuration::from_secs(5),
            None,
        );
        // Alerts stay in configuration order…
        let configured: Vec<&str> = report.alerts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(configured, vec!["zeta", "alpha", "mid"]);
        // …while the BTreeMap summary iterates in name order.
        let keys: Vec<&str> = report.alert_states().into_keys().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    /// Offenders carry their attribution annotation: mapped subjects
    /// read their own component, unmapped subjects fall back to the
    /// federation's hottest component, and a latency SLO pulls its
    /// exemplar from the guarded histogram's slow tail.
    #[test]
    fn offenders_annotated_with_dominant_component_and_exemplar() {
        use crate::attrib::{AttributionReport, ComponentTimes};

        let mut metrics = Metrics::default();
        let mut trace = Trace::default();
        let mut t = Telemetry::new(sample_cfg(100));
        // A latency SLO driven straight to firing, with a correlated
        // slow observation planting the exemplar.
        let obj = Objective {
            name: "lat".to_owned(),
            subject: "seg0:hub".to_owned(),
            kind: SloKind::LatencyAbove {
                histogram: MetricId::new("h"),
                threshold_ns: 1_000_000,
                budget_ppm: 100_000,
            },
            warning: BurnRateRule {
                long_intervals: 4,
                short_intervals: 1,
                factor_milli: 1_000,
            },
            firing: BurnRateRule {
                long_intervals: 4,
                short_intervals: 1,
                factor_milli: 4_000,
            },
        };
        let mut engine = SloEngine::new(vec![obj]);
        metrics.observe("h", SimDuration::from_micros(10));
        t.sample(SimTime::ZERO, &metrics);
        metrics.observe_corr("h", SimDuration::from_millis(5), 0x77);
        t.sample(SimTime::from_millis(100), &metrics);
        engine.evaluate(SimTime::from_millis(100), &t, &mut trace);
        assert_eq!(engine.status()[0].state, AlertState::Firing);
        // A silent bridge with its own attribution component.
        metrics.gauge_set("bridge.upnp.last_traffic_ns", 0);

        let mut attribution = AttributionReport::default();
        attribution.components.insert(
            "bridge:upnp".to_owned(),
            ComponentTimes {
                self_ns: 10,
                exemplar_corr: 42,
                ..ComponentTimes::default()
            },
        );
        attribution.components.insert(
            "process:umiddle-runtime".to_owned(),
            ComponentTimes {
                self_ns: 5,
                queue_ns: 999,
                exemplar_corr: 9,
                ..ComponentTimes::default()
            },
        );
        let report = HealthReport::build(
            SimTime::from_secs(10),
            &t,
            &engine,
            &metrics,
            &[],
            0,
            SimDuration::from_secs(5),
            Some(&attribution),
        );
        let by_kind = |kind: &str| {
            report
                .top_offenders
                .iter()
                .find(|o| o.kind == kind)
                .unwrap_or_else(|| panic!("offender {kind} present"))
        };
        let slo = by_kind("slo");
        // Unmapped subject → hottest component; exemplar from the
        // histogram's slow tail, not from the component.
        assert_eq!(slo.dominant, "process:umiddle-runtime/queue");
        assert_eq!(slo.exemplar_corr, 0x77);
        let silent = by_kind("bridge-silent");
        assert_eq!(silent.dominant, "bridge:upnp/self");
        assert_eq!(silent.exemplar_corr, 42);
        // The annotations survive the JSON render.
        let json = report.to_json().document();
        assert!(json.contains("\"dominant\": \"process:umiddle-runtime/queue\""));
        assert!(json.contains(&format!("\"exemplar_corr\": {}", 0x77)));
    }
}
