//! In-run windowed time series over the metrics registry.
//!
//! A [`Telemetry`] store holds one bounded ring buffer per metric. The
//! world's timer-wheel-driven sampler (see
//! [`World::enable_telemetry`](crate::World::enable_telemetry)) calls
//! [`Telemetry::sample`] at a fixed virtual-time interval; each sample
//! folds the *delta* since the previous sample of every counter and
//! histogram (and the current value of every gauge) into the rings, so
//! rates, trends and high-watermarks are available while the federation
//! is still running instead of only at exit.
//!
//! Everything is integer nanoseconds and ordered maps, so two seeded
//! runs produce byte-identical windows ([`TelemetryWindow::to_json`]).
//!
//! Baseline rule: the first time a metric is seen, the sampler records
//! its current value as the baseline and pushes *no* delta — a counter
//! that accumulated before telemetry was enabled does not appear as one
//! giant first interval. Gauges push their value from the first sighting.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{Json, Layout};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Histogram, Metrics, LATENCY_BUCKET_BOUNDS_NS};

/// Number of histogram buckets (the 1–2–5 bounds plus overflow).
pub const BUCKET_COUNT: usize = LATENCY_BUCKET_BOUNDS_NS.len() + 1;

/// Configuration of the periodic sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Virtual time between samples. Sample instants snap to multiples
    /// of the interval, so timestamps are stable across topology edits.
    pub interval: SimDuration,
    /// Ring capacity: how many per-interval samples each series keeps.
    pub window: usize,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: SimDuration::from_secs(1),
            window: 64,
        }
    }
}

/// Ring of per-interval deltas of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSeries {
    deltas: VecDeque<u64>,
    last: u64,
    high_watermark: u64,
}

impl CounterSeries {
    fn new(baseline: u64) -> CounterSeries {
        CounterSeries {
            deltas: VecDeque::new(),
            last: baseline,
            high_watermark: 0,
        }
    }

    fn push(&mut self, value: u64, window: usize) {
        let delta = value.saturating_sub(self.last);
        self.last = value;
        self.high_watermark = self.high_watermark.max(delta);
        if self.deltas.len() >= window {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// Per-interval deltas, oldest first.
    pub fn deltas(&self) -> impl Iterator<Item = u64> + '_ {
        self.deltas.iter().copied()
    }

    /// Number of sampled intervals currently in the ring.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when no interval has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Cumulative counter value at the last sample.
    pub fn last_value(&self) -> u64 {
        self.last
    }

    /// Largest per-interval delta ever observed (not bounded by the
    /// ring: a spike stays visible after its samples age out).
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Sum of the last `n` deltas plus how many intervals that covered
    /// and how many of them were zero (silent).
    pub fn window_sum(&self, n: usize) -> (u64, usize, usize) {
        let take = n.min(self.deltas.len());
        let mut sum = 0u64;
        let mut zeros = 0usize;
        for &d in self.deltas.iter().rev().take(take) {
            sum = sum.saturating_add(d);
            if d == 0 {
                zeros += 1;
            }
        }
        (sum, take, zeros)
    }
}

/// Ring of sampled values of one gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSeries {
    values: VecDeque<i64>,
    high_watermark: i64,
    low_watermark: i64,
}

impl GaugeSeries {
    fn new() -> GaugeSeries {
        GaugeSeries {
            values: VecDeque::new(),
            high_watermark: i64::MIN,
            low_watermark: i64::MAX,
        }
    }

    fn push(&mut self, value: i64, window: usize) {
        self.high_watermark = self.high_watermark.max(value);
        self.low_watermark = self.low_watermark.min(value);
        if self.values.len() >= window {
            self.values.pop_front();
        }
        self.values.push_back(value);
    }

    /// Sampled values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.values.iter().copied()
    }

    /// Number of samples currently in the ring.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the gauge has not been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Most recently sampled value, if any.
    pub fn last_value(&self) -> Option<i64> {
        self.values.back().copied()
    }

    /// Value `n` samples before the newest one, if the ring reaches
    /// that far back.
    pub fn value_back(&self, n: usize) -> Option<i64> {
        let len = self.values.len();
        if n < len {
            self.values.get(len - 1 - n).copied()
        } else {
            None
        }
    }

    /// Largest value ever sampled.
    pub fn high_watermark(&self) -> i64 {
        self.high_watermark
    }

    /// Smallest value ever sampled.
    pub fn low_watermark(&self) -> i64 {
        self.low_watermark
    }
}

/// Delta of one histogram over one sampling interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Observations recorded during the interval.
    pub count: u64,
    /// Nanoseconds added to the sum during the interval.
    pub sum_ns: u128,
    /// Per-bucket deltas (1–2–5 bounds plus overflow).
    pub buckets: [u64; BUCKET_COUNT],
}

/// Ring of per-interval deltas of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSeries {
    deltas: VecDeque<HistogramDelta>,
    last_count: u64,
    last_sum_ns: u128,
    last_buckets: [u64; BUCKET_COUNT],
}

impl HistogramSeries {
    fn new(baseline: &Histogram) -> HistogramSeries {
        let mut last_buckets = [0u64; BUCKET_COUNT];
        last_buckets.copy_from_slice(baseline.bucket_counts());
        HistogramSeries {
            deltas: VecDeque::new(),
            last_count: baseline.count(),
            last_sum_ns: baseline.sum_ns(),
            last_buckets,
        }
    }

    fn push(&mut self, h: &Histogram, window: usize) {
        let mut buckets = [0u64; BUCKET_COUNT];
        for (i, (&now, &then)) in h
            .bucket_counts()
            .iter()
            .zip(self.last_buckets.iter())
            .enumerate()
        {
            buckets[i] = now.saturating_sub(then);
        }
        let delta = HistogramDelta {
            count: h.count().saturating_sub(self.last_count),
            sum_ns: h.sum_ns().saturating_sub(self.last_sum_ns),
            buckets,
        };
        self.last_count = h.count();
        self.last_sum_ns = h.sum_ns();
        self.last_buckets.copy_from_slice(h.bucket_counts());
        if self.deltas.len() >= window {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// Per-interval deltas, oldest first.
    pub fn deltas(&self) -> impl Iterator<Item = &HistogramDelta> {
        self.deltas.iter()
    }

    /// Number of sampled intervals currently in the ring.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when no interval has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Merged histogram of the last `n` intervals.
    pub fn window(&self, n: usize) -> WindowHistogram {
        let take = n.min(self.deltas.len());
        let mut out = WindowHistogram {
            count: 0,
            sum_ns: 0,
            buckets: [0; BUCKET_COUNT],
            intervals: take,
        };
        for d in self.deltas.iter().rev().take(take) {
            out.count = out.count.saturating_add(d.count);
            out.sum_ns = out.sum_ns.saturating_add(d.sum_ns);
            for (b, &v) in out.buckets.iter_mut().zip(d.buckets.iter()) {
                *b = b.saturating_add(v);
            }
        }
        out
    }
}

/// A histogram merged over a trailing window of sampling intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistogram {
    /// Observations in the window.
    pub count: u64,
    /// Summed nanoseconds in the window.
    pub sum_ns: u128,
    /// Per-bucket counts in the window.
    pub buckets: [u64; BUCKET_COUNT],
    /// How many intervals the window actually covered.
    pub intervals: usize,
}

impl WindowHistogram {
    /// Observations above `threshold_ns`, conservatively: an observation
    /// counts as *good* only if its whole bucket is ≤ the threshold, so
    /// thresholds should sit on a bucket bound
    /// ([`LATENCY_BUCKET_BOUNDS_NS`](crate::trace::Histogram)) for exact
    /// results. Overflow-bucket observations always count as above.
    pub fn above_ns(&self, threshold_ns: u64) -> u64 {
        let mut good = 0u64;
        for (i, &bound) in LATENCY_BUCKET_BOUNDS_NS.iter().enumerate() {
            if bound <= threshold_ns {
                good = good.saturating_add(self.buckets[i]);
            } else {
                break;
            }
        }
        self.count.saturating_sub(good)
    }
}

/// Bounded ring-buffer time series over every metric in a registry.
///
/// Owned by the world's telemetry plane; sampled on timer-wheel events.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    interval: SimDuration,
    window: usize,
    samples: u64,
    last_sample: SimTime,
    counters: BTreeMap<String, CounterSeries>,
    gauges: BTreeMap<String, GaugeSeries>,
    histograms: BTreeMap<String, HistogramSeries>,
}

impl Telemetry {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero or the window is zero.
    pub fn new(config: SamplerConfig) -> Telemetry {
        assert!(!config.interval.is_zero(), "sampler interval must be > 0");
        assert!(config.window > 0, "sampler window must be > 0");
        Telemetry {
            interval: config.interval,
            window: config.window,
            samples: 0,
            last_sample: SimTime::ZERO,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Ring capacity in samples.
    pub fn window_len(&self) -> usize {
        self.window
    }

    /// Total samples taken (including the baseline pass at enable time).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Virtual time of the most recent sample.
    pub fn last_sample(&self) -> SimTime {
        self.last_sample
    }

    /// Takes one sample: pushes counter/histogram deltas and gauge
    /// values into the rings. Metrics seen for the first time record a
    /// baseline and push no delta (see the module docs).
    pub fn sample(&mut self, now: SimTime, metrics: &Metrics) {
        for (name, v) in metrics.counters() {
            match self.counters.get_mut(name) {
                Some(series) => series.push(v, self.window),
                None => {
                    self.counters.insert(name.to_owned(), CounterSeries::new(v));
                }
            }
        }
        for (name, v) in metrics.gauges() {
            match self.gauges.get_mut(name) {
                Some(series) => series.push(v, self.window),
                None => {
                    let mut series = GaugeSeries::new();
                    series.push(v, self.window);
                    self.gauges.insert(name.to_owned(), series);
                }
            }
        }
        for (name, h) in metrics.histograms() {
            match self.histograms.get_mut(name) {
                Some(series) => series.push(h, self.window),
                None => {
                    self.histograms
                        .insert(name.to_owned(), HistogramSeries::new(h));
                }
            }
        }
        self.samples += 1;
        self.last_sample = now;
    }

    /// Series of one counter, if it has been sampled.
    pub fn counter_series(&self, name: &str) -> Option<&CounterSeries> {
        self.counters.get(name)
    }

    /// Series of one gauge, if it has been sampled.
    pub fn gauge_series(&self, name: &str) -> Option<&GaugeSeries> {
        self.gauges.get(name)
    }

    /// Series of one histogram, if it has been sampled.
    pub fn histogram_series(&self, name: &str) -> Option<&HistogramSeries> {
        self.histograms.get(name)
    }

    /// Counter rate over the last `n` intervals, in events per virtual
    /// second (integer division; `None` before the first full interval).
    pub fn counter_rate_per_sec(&self, name: &str, n: usize) -> Option<u64> {
        let series = self.counters.get(name)?;
        let (sum, intervals, _) = series.window_sum(n);
        if intervals == 0 {
            return None;
        }
        let window_ns = (intervals as u64).saturating_mul(self.interval.as_nanos());
        if window_ns == 0 {
            return None;
        }
        Some(
            sum.saturating_mul(1_000_000_000)
                .checked_div(window_ns)
                .unwrap_or(0),
        )
    }

    /// An owned window over the rings, optionally scoped: with
    /// `Some("rt0")`, only metrics named `rt0.*` are included, prefix
    /// stripped — the live-pull analogue of
    /// [`Metrics::scoped`](crate::Metrics::scoped).
    pub fn window(&self, scope: Option<&str>) -> TelemetryWindow {
        let prefix = scope.map(|s| format!("{s}."));
        let keep = |name: &str| -> Option<String> {
            match &prefix {
                None => Some(name.to_owned()),
                Some(p) => name.strip_prefix(p.as_str()).map(|n| n.to_owned()),
            }
        };
        let mut out = TelemetryWindow {
            interval_ns: self.interval.as_nanos(),
            samples: self.samples,
            last_sample_ns: self.last_sample.as_nanos(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        for (name, s) in &self.counters {
            if let Some(key) = keep(name) {
                out.counters.insert(
                    key,
                    CounterWindow {
                        deltas: s.deltas().collect(),
                        total: s.last_value(),
                        high_watermark: s.high_watermark(),
                    },
                );
            }
        }
        for (name, s) in &self.gauges {
            if let Some(key) = keep(name) {
                out.gauges.insert(
                    key,
                    GaugeWindow {
                        values: s.values().collect(),
                        high_watermark: s.high_watermark(),
                        low_watermark: s.low_watermark(),
                    },
                );
            }
        }
        for (name, s) in &self.histograms {
            if let Some(key) = keep(name) {
                let all = s.window(s.len());
                out.histograms.insert(
                    key,
                    HistogramWindow {
                        count_deltas: s.deltas().map(|d| d.count).collect(),
                        count: all.count,
                        sum_ns: all.sum_ns,
                    },
                );
            }
        }
        out
    }
}

/// Windowed view of one counter inside a [`TelemetryWindow`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterWindow {
    /// Per-interval deltas, oldest first.
    pub deltas: Vec<u64>,
    /// Cumulative value at the last sample.
    pub total: u64,
    /// Largest per-interval delta ever observed.
    pub high_watermark: u64,
}

/// Windowed view of one gauge inside a [`TelemetryWindow`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GaugeWindow {
    /// Sampled values, oldest first.
    pub values: Vec<i64>,
    /// Largest value ever sampled.
    pub high_watermark: i64,
    /// Smallest value ever sampled.
    pub low_watermark: i64,
}

/// Windowed view of one histogram inside a [`TelemetryWindow`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramWindow {
    /// Per-interval observation counts, oldest first.
    pub count_deltas: Vec<u64>,
    /// Observations over the whole retained window.
    pub count: u64,
    /// Summed nanoseconds over the whole retained window.
    pub sum_ns: u128,
}

/// Owned snapshot of the sampler's rings, optionally scoped to one
/// runtime's metrics. This is what
/// [`RuntimeRequest::TelemetryWindow`](../../umiddle_core/enum.RuntimeRequest.html)
/// pulls deliver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryWindow {
    /// Sampling interval in nanoseconds.
    pub interval_ns: u64,
    /// Total samples taken by the store.
    pub samples: u64,
    /// Virtual time of the most recent sample, in nanoseconds.
    pub last_sample_ns: u64,
    /// Counter windows by name.
    pub counters: BTreeMap<String, CounterWindow>,
    /// Gauge windows by name.
    pub gauges: BTreeMap<String, GaugeWindow>,
    /// Histogram windows by name.
    pub histograms: BTreeMap<String, HistogramWindow>,
}

impl TelemetryWindow {
    /// The window as a deterministic JSON value (sorted keys, integers
    /// only), byte-identical across identical runs.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.iter().map(|(name, w)| {
            let w = Json::inline()
                .with("total", w.total)
                .with("high_watermark", w.high_watermark)
                .with(
                    "deltas",
                    Json::array(Layout::Inline, w.deltas.iter().copied()),
                );
            (name, w)
        });
        let gauges = self.gauges.iter().map(|(name, w)| {
            let w = Json::inline()
                .with("high_watermark", w.high_watermark)
                .with("low_watermark", w.low_watermark)
                .with(
                    "values",
                    Json::array(Layout::Inline, w.values.iter().copied()),
                );
            (name, w)
        });
        let histograms = self.histograms.iter().map(|(name, w)| {
            let w = Json::inline()
                .with("count", w.count)
                .with("sum_ns", w.sum_ns)
                .with(
                    "count_deltas",
                    Json::array(Layout::Inline, w.count_deltas.iter().copied()),
                );
            (name, w)
        });
        Json::block()
            .with("interval_ns", self.interval_ns)
            .with("samples", self.samples)
            .with("last_sample_ns", self.last_sample_ns)
            .with("counters", Json::object(Layout::Block, counters))
            .with("gauges", Json::object(Layout::Block, gauges))
            .with("histograms", Json::object(Layout::Block, histograms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval_ms: u64, window: usize) -> SamplerConfig {
        SamplerConfig {
            interval: SimDuration::from_millis(interval_ms),
            window,
        }
    }

    #[test]
    fn first_sighting_is_a_baseline_not_a_delta() {
        let mut m = Metrics::default();
        m.counter_add("c", 1_000);
        let mut t = Telemetry::new(cfg(100, 8));
        t.sample(SimTime::from_millis(100), &m);
        let s = t.counter_series("c").unwrap();
        assert_eq!(s.len(), 0, "baseline pass records no delta");
        assert_eq!(s.last_value(), 1_000);
        m.counter_add("c", 7);
        t.sample(SimTime::from_millis(200), &m);
        let s = t.counter_series("c").unwrap();
        assert_eq!(s.deltas().collect::<Vec<_>>(), vec![7]);
        assert_eq!(s.high_watermark(), 7);
    }

    #[test]
    fn rings_are_bounded_and_watermarks_persist() {
        let mut m = Metrics::default();
        m.counter_add("c", 0);
        let mut t = Telemetry::new(cfg(100, 3));
        t.sample(SimTime::ZERO, &m);
        for i in 1..=10u64 {
            m.counter_add("c", i);
            t.sample(SimTime::from_millis(100 * i), &m);
        }
        let s = t.counter_series("c").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.deltas().collect::<Vec<_>>(), vec![8, 9, 10]);
        // The spike watermark outlives the ring.
        assert_eq!(s.high_watermark(), 10);
        let (sum, n, zeros) = s.window_sum(2);
        assert_eq!((sum, n, zeros), (19, 2, 0));
    }

    #[test]
    fn gauge_series_track_both_watermarks() {
        let mut m = Metrics::default();
        let mut t = Telemetry::new(cfg(100, 4));
        for (i, v) in [5i64, -3, 12, 4].iter().enumerate() {
            m.gauge_set("g", *v);
            t.sample(SimTime::from_millis(100 * (i as u64 + 1)), &m);
        }
        let s = t.gauge_series("g").unwrap();
        assert_eq!(s.values().collect::<Vec<_>>(), vec![5, -3, 12, 4]);
        assert_eq!(s.high_watermark(), 12);
        assert_eq!(s.low_watermark(), -3);
        assert_eq!(s.last_value(), Some(4));
        assert_eq!(s.value_back(2), Some(-3));
        assert_eq!(s.value_back(4), None);
    }

    #[test]
    fn histogram_windows_merge_interval_deltas() {
        let mut m = Metrics::default();
        m.observe("lat", SimDuration::from_micros(1));
        let mut t = Telemetry::new(cfg(100, 8));
        t.sample(SimTime::ZERO, &m);
        m.observe("lat", SimDuration::from_micros(1));
        m.observe("lat", SimDuration::from_millis(50));
        t.sample(SimTime::from_millis(100), &m);
        m.observe("lat", SimDuration::from_millis(50));
        t.sample(SimTime::from_millis(200), &m);
        let s = t.histogram_series("lat").unwrap();
        assert_eq!(s.len(), 2);
        let w = s.window(2);
        // The baseline observation is excluded; three live ones remain.
        assert_eq!(w.count, 3);
        assert_eq!(w.intervals, 2);
        assert_eq!(w.above_ns(1_000), 2, "two 50 ms observations above 1 µs");
        assert_eq!(w.above_ns(50_000_000), 0);
        let w1 = s.window(1);
        assert_eq!(w1.count, 1);
    }

    #[test]
    fn rates_are_integer_per_second() {
        let mut m = Metrics::default();
        m.counter_add("c", 0);
        let mut t = Telemetry::new(cfg(500, 8));
        t.sample(SimTime::ZERO, &m);
        m.counter_add("c", 25);
        t.sample(SimTime::from_millis(500), &m);
        // 25 events over 0.5 s → 50/s.
        assert_eq!(t.counter_rate_per_sec("c", 4), Some(50));
        assert_eq!(t.counter_rate_per_sec("missing", 4), None);
    }

    #[test]
    fn scoped_windows_strip_prefix_and_filter() {
        let mut m = Metrics::default();
        m.counter_add("rt0.sent", 0);
        m.counter_add("rt1.sent", 0);
        m.gauge_set("rt0.depth", 3);
        let mut t = Telemetry::new(cfg(100, 8));
        t.sample(SimTime::ZERO, &m);
        m.counter_add("rt0.sent", 2);
        m.counter_add("rt1.sent", 9);
        t.sample(SimTime::from_millis(100), &m);
        let w = t.window(Some("rt0"));
        assert_eq!(w.counters.len(), 1);
        assert_eq!(w.counters["sent"].deltas, vec![2]);
        assert_eq!(w.gauges["depth"].values, vec![3, 3]);
        let all = t.window(None);
        assert!(all.counters.contains_key("rt0.sent"));
        assert!(all.counters.contains_key("rt1.sent"));
    }

    #[test]
    fn window_json_is_deterministic() {
        let mut m = Metrics::default();
        m.counter_add("b", 0);
        m.counter_add("a", 0);
        m.observe("lat", SimDuration::from_micros(5));
        let mut t = Telemetry::new(cfg(100, 8));
        t.sample(SimTime::ZERO, &m);
        m.counter_add("a", 1);
        t.sample(SimTime::from_millis(100), &m);
        let j1 = t.window(None).to_json().document();
        let j2 = t.window(None).to_json().document();
        assert_eq!(j1, j2);
        assert!(j1.find("\"a\"").unwrap() < j1.find("\"b\"").unwrap());
        assert!(j1.contains("\"interval_ns\": 100000000"));
    }
}
