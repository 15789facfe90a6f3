//! Tracing and metrics for simulations.
//!
//! Every [`World`](crate::World) owns a [`Trace`]: a ring-journal span
//! log for causal path reconstruction (it keeps the newest window when
//! full) and a [`Metrics`] registry of typed counters, gauges, and
//! fixed-bucket latency histograms. Protocol code records through
//! [`Ctx`](crate::Ctx); benches and tests read the registry back to
//! assert on behaviour (frames on a segment, bytes delivered,
//! retransmissions, per-hop translation latency, …).
//!
//! Spans are *structured*: each has a [`SpanId`], an optional parent, and
//! an explicit begin and end, so every hop of a mediated path has a
//! duration. The [`span`](crate::span) module rebuilds the per-path trees
//! and computes critical-path breakdowns; the [`export`](crate::export)
//! module renders Perfetto and flamegraph artifacts.
//!
//! Everything here is keyed to **virtual** time, so two runs of the same
//! seeded world produce byte-identical snapshots
//! ([`MetricsSnapshot::to_json`]) and byte-identical trace exports.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, Mutex, PoisonError};

use crate::journal::{SpanJournal, SpanSource};
use crate::json::{Json, Layout};
use crate::time::{SimDuration, SimTime};

/// Identifier of a structured span, unique within one [`Trace`].
///
/// Ids are minted by [`Trace::span_begin`] and [`Trace::span`] in
/// allocation order starting at 1; every call records a span. The zero
/// id, [`SpanId::NONE`], is never minted: it stands for "no span" where
/// an id is optional (a message that carries no transport span), and
/// ending it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The sentinel id that names no span.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this id refers to a recorded span.
    pub fn is_recorded(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One typed argument of a [`SpanDetail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetailArg {
    /// An unsigned integer, rendered in decimal.
    U64(u64),
    /// A static string: a literal or an interned name.
    Str(&'static str),
    /// A virtual-time duration, rendered by its `Display`.
    Dur(SimDuration),
    /// Shared text built by the caller. Building it allocates, so it is
    /// for rare, control-plane details only.
    Text(Arc<str>),
}

impl fmt::Display for DetailArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetailArg::U64(n) => write!(f, "{n}"),
            DetailArg::Str(s) => f.write_str(s),
            DetailArg::Dur(d) => write!(f, "{d}"),
            DetailArg::Text(s) => f.write_str(s),
        }
    }
}

/// Most arguments one [`SpanDetail`] holds.
pub(crate) const DETAIL_ARGS: usize = 4;

/// A span's free-form detail (port names, byte counts, retry numbers)
/// as a small typed value: static text pieces interleaved with up to
/// four [`DetailArg`]s, `pieces[0] args[0] pieces[1] … pieces[n]`.
///
/// Building one takes no heap allocation (unless it holds a
/// [`DetailArg::Text`]); the text is rendered by `Display` only when a
/// span is exported or printed.
///
/// ```
/// use simnet::{DetailArg, SpanDetail};
///
/// let d = SpanDetail::new(&["port=", " path=", ""], [DetailArg::Str("in"), DetailArg::U64(3)]);
/// assert_eq!(d.to_string(), "port=in path=3");
/// assert_eq!(SpanDetail::EMPTY.to_string(), "");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDetail {
    pub(crate) pieces: &'static [&'static str],
    pub(crate) args: [DetailArg; DETAIL_ARGS],
}

impl SpanDetail {
    /// The empty detail.
    pub const EMPTY: SpanDetail = SpanDetail {
        pieces: &[],
        args: [
            DetailArg::U64(0),
            DetailArg::U64(0),
            DetailArg::U64(0),
            DetailArg::U64(0),
        ],
    };

    /// A detail rendering `pieces` with `args` between them.
    ///
    /// # Panics
    ///
    /// Panics unless there is one piece more than there are arguments,
    /// and at most four arguments.
    pub fn new<const N: usize>(
        pieces: &'static [&'static str],
        args: [DetailArg; N],
    ) -> SpanDetail {
        assert!(
            N <= DETAIL_ARGS && pieces.len() == N + 1,
            "a span detail takes n <= {DETAIL_ARGS} arguments and n + 1 pieces"
        );
        let mut detail = SpanDetail {
            pieces,
            ..SpanDetail::EMPTY
        };
        for (slot, arg) in detail.args.iter_mut().zip(args) {
            *slot = arg;
        }
        detail
    }
}

impl fmt::Display for SpanDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, piece) in self.pieces.iter().enumerate() {
            f.write_str(piece)?;
            if i + 1 < self.pieces.len() {
                self.args[i].fmt(f)?;
            }
        }
        Ok(())
    }
}

impl From<&'static str> for SpanDetail {
    fn from(text: &'static str) -> SpanDetail {
        if text.is_empty() {
            SpanDetail::EMPTY
        } else {
            SpanDetail::new(&["", ""], [DetailArg::Str(text)])
        }
    }
}

/// Built text, for rare, control-plane details (see [`DetailArg::Text`]).
impl From<String> for SpanDetail {
    fn from(text: String) -> SpanDetail {
        if text.is_empty() {
            SpanDetail::EMPTY
        } else {
            SpanDetail::new(&["", ""], [DetailArg::Text(text.into())])
        }
    }
}

/// One structured span on a correlated path: a stage of a message's
/// mapper→translator→port journey with an explicit begin and end, so
/// every hop has a duration, not just a timestamp.
///
/// Spans carrying the same correlation id reconstruct one logical path
/// end to end, across runtimes and platform bridges; parent links give
/// the nesting within one path (see [`SpanTree`](crate::span::SpanTree)).
///
/// This is the materialized form: the journal stores each span as a
/// compact slot (see [`Trace`]) and builds records when they are read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace, in allocation order.
    pub id: SpanId,
    /// The span open on the same correlation id when this one began.
    pub parent: Option<SpanId>,
    /// Correlation id minted when the connection was established
    /// (zero for uncorrelated platform-side work).
    pub corr: u64,
    /// Short source tag (usually the process name).
    pub source: Arc<str>,
    /// Stage name, dot-scoped (`connect`, `queue.wait`,
    /// `transport.send`, `bridge.upnp.input`, …).
    pub stage: &'static str,
    /// Free-form detail (port names, byte counts, retry numbers).
    pub detail: SpanDetail,
    /// Virtual time the stage began.
    pub start: SimTime,
    /// Virtual time the stage ended, or `None` if it never closed (a
    /// dropped message, a crashed runtime, a run that ended mid-flight).
    pub end: Option<SimTime>,
}

impl SpanRecord {
    /// Duration of a closed span; `None` while open.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }

    /// End time for analysis: a span that never closed is treated as
    /// zero-length rather than infinitely long.
    pub fn effective_end(&self) -> SimTime {
        self.end.unwrap_or(self.start)
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end {
            Some(end) => write!(
                f,
                "[{}..{}] corr={:#x} {} {}: {}",
                self.start, end, self.corr, self.source, self.stage, self.detail
            ),
            None => write!(
                f,
                "[{}..open] corr={:#x} {} {}: {}",
                self.start, self.corr, self.source, self.stage, self.detail
            ),
        }
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed latency buckets:
/// a 1–2–5 series from 1 µs to 100 s. Values above the last bound land
/// in an implicit overflow bucket.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 25] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    50_000_000_000,
    100_000_000_000,
];

/// A fixed-bucket latency histogram over virtual-time durations.
///
/// Buckets are the global `LATENCY_BUCKET_BOUNDS_NS` 1–2–5 series plus
/// an overflow bucket; a recorded value lands in the first bucket whose
/// bound is ≥ the value (Prometheus `le` semantics). Deterministic: no
/// floating point is involved in bucketing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    /// Trace correlation id of the observation currently holding the
    /// recorded maximum (zero = the max came from an uncorrelated
    /// observation).
    max_corr: u64,
    /// Per-bucket exemplars: the corr id of the *first* correlated
    /// observation that landed in each bucket. Zero = no correlated
    /// observation has reached this bucket yet.
    bucket_corr: [u64; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            max_corr: 0,
            bucket_corr: [0; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
        }
    }
}

impl Histogram {
    /// Records one duration. All count/sum arithmetic saturates, so a
    /// pathological run degrades to clamped totals instead of wrapping.
    pub fn record(&mut self, d: SimDuration) {
        self.record_corr(d, 0);
    }

    /// Records one duration tagged with a trace correlation id, keeping
    /// exemplars: the corr that set the running max, and the first
    /// non-zero corr to land in each bucket. An uncorrelated
    /// observation (`corr == 0`) still claims `max_corr` when it sets a
    /// new max — `max_corr` always describes the *current* max holder —
    /// but never claims a bucket exemplar.
    pub fn record_corr(&mut self, d: SimDuration, corr: u64) {
        let ns = d.as_nanos();
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(u128::from(ns));
        self.min_ns = self.min_ns.min(ns);
        if ns > self.max_ns || self.count == 1 {
            self.max_corr = corr;
        }
        self.max_ns = self.max_ns.max(ns);
        if corr != 0 && self.bucket_corr[idx] == 0 {
            self.bucket_corr[idx] = corr;
        }
    }

    /// Corr id of the observation holding the recorded maximum, or zero
    /// if the max holder was uncorrelated (or the histogram is empty).
    pub fn max_corr(&self) -> u64 {
        self.max_corr
    }

    /// Per-bucket first-corr exemplars, one per bound plus the overflow
    /// bucket, aligned with [`Histogram::bucket_counts`]. Zero entries
    /// mean no correlated observation landed in that bucket.
    pub fn bucket_exemplars(&self) -> &[u64] {
        &self.bucket_corr
    }

    /// Exemplar for the slow tail above `threshold_ns`: the first-corr
    /// exemplar of the lowest populated bucket whose entire range lies
    /// above the threshold, falling back to higher buckets and finally
    /// to the max holder's corr. Returns `None` when no correlated
    /// observation exists above the threshold.
    pub fn exemplar_above_ns(&self, threshold_ns: u64) -> Option<u64> {
        let first = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| bound >= threshold_ns)
            .map_or(LATENCY_BUCKET_BOUNDS_NS.len(), |i| i + 1);
        for idx in first..self.bucket_corr.len() {
            if self.bucket_corr[idx] != 0 {
                return Some(self.bucket_corr[idx]);
            }
        }
        (self.max_corr != 0 && self.max_ns > threshold_ns).then_some(self.max_corr)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean of the recorded values, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// Smallest recorded value, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded value, or zero if empty.
    pub fn max(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.max_ns)
        }
    }

    /// Per-bucket counts, one per bound plus the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Conservative quantile estimate over the recorded values, in
    /// nanoseconds.
    ///
    /// Contract: the returned bound is always ≥ the true quantile and
    /// never exceeds the recorded maximum. For `q = 1.0` it is the
    /// *exact* recorded maximum. For interior quantiles it is the upper
    /// bound of the 1–2–5 bucket the rank falls into (an over-estimate
    /// by at most one bucket width), clamped to the recorded maximum —
    /// so a quantile landing in the unbounded overflow bucket reports
    /// the maximum, the tightest bound available. Returns `None` only
    /// for an empty histogram.
    pub fn quantile_bound_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return Some(self.max_ns);
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match LATENCY_BUCKET_BOUNDS_NS.get(i) {
                    Some(&bound) => bound.min(self.max_ns),
                    None => self.max_ns,
                });
            }
        }
        Some(self.max_ns)
    }
}

/// A dense handle to a metric name.
///
/// [`MetricId::new`] resolves a name once; every [`Metrics`] registry
/// then updates the metric by indexing a `Vec` with the handle, where a
/// name would walk a string-keyed map. A handle is valid in every
/// registry of the process (worlds on other threads included, such as
/// parallel test threads), so a process can resolve its handles when it is constructed, before
/// it joins a world. Resolving the same name twice yields the same id.
///
/// Names live in one process-wide table for the life of the process:
/// they are a small, stable vocabulary (`rt{N}.outputs`,
/// `bridge.{platform}.traffic`, …), like the port-name symbols of the
/// runtime. Ids are an internal detail; every read and export orders
/// metrics by name, so output never depends on resolution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(pub(crate) u32);

/// The process-wide name table behind [`MetricId`].
struct NameTable {
    ids: BTreeMap<&'static str, MetricId>,
    names: Vec<&'static str>,
}

static NAMES: Mutex<NameTable> = Mutex::new(NameTable {
    ids: BTreeMap::new(),
    names: Vec::new(),
});

impl MetricId {
    /// The handle of `name`, minting it on first use.
    pub fn new(name: &str) -> MetricId {
        Self::intern(name).0
    }

    /// The handle of `name` and the table's copy of it.
    fn intern(name: &str) -> (MetricId, &'static str) {
        let mut table = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((&interned, &id)) = table.ids.get_key_value(name) {
            return (id, interned);
        }
        let interned: &'static str = Box::leak(name.into());
        let id = MetricId(u32::try_from(table.names.len()).expect("metric name table overflow"));
        table.names.push(interned);
        table.ids.insert(interned, id);
        (id, interned)
    }

    /// The name this handle was resolved from.
    pub fn name(self) -> &'static str {
        NAMES.lock().unwrap_or_else(PoisonError::into_inner).names[self.0 as usize]
    }
}

/// The [`MetricId`] of a literal metric name, resolved once per call
/// site, for hot updates of fixed names:
///
/// ```
/// let mut m = simnet::Metrics::default();
/// m.counter_add(simnet::metric_id!("stream.frames"), 2);
/// assert_eq!(m.counter("stream.frames"), 2);
/// ```
#[macro_export]
macro_rules! metric_id {
    ($name:literal) => {{
        static ID: std::sync::LazyLock<$crate::MetricId> =
            std::sync::LazyLock::new(|| $crate::MetricId::new($name));
        *ID
    }};
}

/// What a metric update is addressed by: a name, looked up (and minted
/// on first use) per update, or a [`MetricId`] resolved beforehand.
/// Both reach the same slot; hot paths hold ids.
#[derive(Debug, Clone, Copy)]
pub enum MetricRef<'a> {
    /// A metric name.
    Name(&'a str),
    /// A resolved handle.
    Id(MetricId),
}

impl<'a> From<&'a str> for MetricRef<'a> {
    fn from(name: &'a str) -> MetricRef<'a> {
        MetricRef::Name(name)
    }
}

impl<'a> From<&'a String> for MetricRef<'a> {
    fn from(name: &'a String) -> MetricRef<'a> {
        MetricRef::Name(name)
    }
}

impl From<MetricId> for MetricRef<'_> {
    fn from(id: MetricId) -> MetricRef<'static> {
        MetricRef::Id(id)
    }
}

/// One kind of metric (counters, gauges or histograms): values stored
/// densely, reachable by [`MetricId`] through `slots` and by name
/// through `by_name`, the sorted side table every named read goes
/// through.
#[derive(Debug)]
pub(crate) struct Column<V> {
    /// Written metrics by name → index into `values`.
    by_name: BTreeMap<&'static str, usize>,
    /// `MetricId` → index into `values` plus one; zero = never written.
    slots: Vec<usize>,
    values: Vec<V>,
}

impl<V> Default for Column<V> {
    fn default() -> Column<V> {
        Column {
            by_name: BTreeMap::new(),
            slots: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V> Column<V> {
    /// The slot of a metric written before, if any.
    fn find(&self, key: MetricRef<'_>) -> Option<usize> {
        match key {
            MetricRef::Name(name) => self.by_name.get(name).copied(),
            MetricRef::Id(id) => match self.slots.get(id.0 as usize) {
                Some(&slot) if slot != 0 => Some(slot - 1),
                _ => None,
            },
        }
    }

    /// The value of a metric, if it was ever written.
    fn get(&self, key: MetricRef<'_>) -> Option<&V> {
        self.find(key).map(|i| &self.values[i])
    }

    /// The value of a metric, created from `init` on first write. The
    /// name is copied into the registry only then.
    fn entry(&mut self, key: MetricRef<'_>, init: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(key) {
            Some(i) => i,
            None => self.insert(key, init()),
        };
        &mut self.values[i]
    }

    /// Files a first value under `key`.
    fn insert(&mut self, key: MetricRef<'_>, v: V) -> usize {
        let (id, name) = match key {
            MetricRef::Name(name) => MetricId::intern(name),
            MetricRef::Id(id) => (id, id.name()),
        };
        let i = self.values.len();
        self.values.push(v);
        self.by_name.insert(name, i);
        let at = id.0 as usize;
        if self.slots.len() <= at {
            self.slots.resize(at + 1, 0);
        }
        self.slots[at] = i + 1;
        i
    }

    /// Every written metric with its id, in id order: the sampler's
    /// walk, which reads no name.
    pub(crate) fn by_id(&self) -> impl Iterator<Item = (MetricId, &V)> {
        let written = self.slots.iter().enumerate().filter(|(_, &slot)| slot != 0);
        written.map(|(id, &slot)| (MetricId(id as u32), &self.values[slot - 1]))
    }

    /// Every written metric, sorted by name.
    fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.by_name.iter().map(|(&k, &i)| (k, &self.values[i]))
    }

    /// The written metrics named `{prefix}*`, sorted by name.
    fn range<'c>(&'c self, prefix: &'c str) -> impl Iterator<Item = (&'c str, &'c V)> + 'c {
        self.by_name
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(&k, &i)| (k, &self.values[i]))
    }

    /// An owned, name-keyed copy.
    fn to_map(&self) -> BTreeMap<String, V>
    where
        V: Clone,
    {
        self.iter()
            .map(|(k, v)| (k.to_owned(), v.clone()))
            .collect()
    }

    fn clear(&mut self) {
        self.by_name.clear();
        self.slots.clear();
        self.values.clear();
    }
}

/// Registry of typed counters, gauges, and latency histograms.
///
/// Names are flat, dot-scoped strings; per-runtime metrics use an
/// `rt{N}.` prefix (e.g. `rt0.advertisements_sent`). Updates take a
/// [`MetricRef`]: a name, or a [`MetricId`] resolved once, which
/// indexes a `Vec`. Every read orders metrics by name, so iteration and
/// JSON output are deterministic.
#[derive(Debug, Default)]
pub struct Metrics {
    pub(crate) counters: Column<u64>,
    pub(crate) gauges: Column<i64>,
    pub(crate) histograms: Column<Histogram>,
}

/// Counter bumped whenever counter/gauge arithmetic clamps at the
/// integer range instead of wrapping, so lossy math is visible in every
/// export rather than silently corrupting totals.
const SATURATION_MARKER: &str = "trace.counter_saturated";

impl Metrics {
    /// Adds `n` to a monotonic counter. The addition saturates at
    /// `u64::MAX`; a clamped update also bumps the
    /// `trace.counter_saturated` marker counter.
    pub fn counter_add<'a>(&mut self, key: impl Into<MetricRef<'a>>, n: u64) {
        let slot = self.counters.entry(key.into(), || 0);
        if let Some(v) = slot.checked_add(n) {
            *slot = v;
        } else {
            *slot = u64::MAX;
            self.note_saturation();
        }
    }

    /// Records one clamped counter/gauge update. The marker itself
    /// saturates rather than wrapping, and never recurses.
    fn note_saturation(&mut self) {
        let marker = self
            .counters
            .entry(MetricRef::Name(SATURATION_MARKER), || 0);
        *marker = marker.saturating_add(1);
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(MetricRef::Name(name))
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge to an absolute value.
    pub fn gauge_set<'a>(&mut self, key: impl Into<MetricRef<'a>>, v: i64) {
        *self.gauges.entry(key.into(), || 0) = v;
    }

    /// Adds a (possibly negative) delta to a gauge. The addition
    /// saturates at the `i64` range; a clamped update also bumps the
    /// `trace.counter_saturated` marker counter.
    pub fn gauge_add<'a>(&mut self, key: impl Into<MetricRef<'a>>, delta: i64) {
        let slot = self.gauges.entry(key.into(), || 0);
        if let Some(v) = slot.checked_add(delta) {
            *slot = v;
        } else {
            *slot = if delta > 0 { i64::MAX } else { i64::MIN };
            self.note_saturation();
        }
    }

    /// Reads a gauge (zero if never written).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(MetricRef::Name(name)).copied().unwrap_or(0)
    }

    /// Records a duration into the named histogram.
    pub fn observe<'a>(&mut self, key: impl Into<MetricRef<'a>>, d: SimDuration) {
        self.histograms
            .entry(key.into(), Histogram::default)
            .record(d);
    }

    /// Records a duration into a histogram tagged with a trace
    /// correlation id, so the histogram keeps exemplars linking its max
    /// and upper buckets back to trace journeys (see
    /// [`Histogram::record_corr`]).
    pub fn observe_corr<'a>(&mut self, key: impl Into<MetricRef<'a>>, d: SimDuration, corr: u64) {
        self.histograms
            .entry(key.into(), Histogram::default)
            .record_corr(d, corr);
    }

    /// Reads a histogram, if it has ever been observed.
    pub fn histogram<'a>(&self, key: impl Into<MetricRef<'a>>) -> Option<&Histogram> {
        self.histograms.get(key.into())
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter()
    }

    /// Counters/gauges/histograms under a dot-scoped prefix, e.g.
    /// `scoped("rt0")` yields every metric named `rt0.*`.
    pub fn scoped<'m>(&'m self, prefix: &str) -> ScopedMetrics<'m> {
        ScopedMetrics {
            metrics: self,
            prefix: format!("{prefix}."),
        }
    }

    /// An owned, deterministic snapshot for export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.to_map(),
            gauges: self.gauges.to_map(),
            histograms: self.histograms.to_map(),
        }
    }

    /// Clears every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

/// A read-only view of the metrics under one scope prefix.
#[derive(Debug)]
pub struct ScopedMetrics<'m> {
    metrics: &'m Metrics,
    prefix: String,
}

impl ScopedMetrics<'_> {
    /// Reads `"{prefix}.{name}"` as a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(&format!("{}{name}", self.prefix))
    }

    /// Reads `"{prefix}.{name}"` as a gauge.
    pub fn gauge(&self, name: &str) -> i64 {
        self.metrics.gauge(&format!("{}{name}", self.prefix))
    }

    /// Reads `"{prefix}.{name}"` as a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.metrics.histogram(&format!("{}{name}", self.prefix))
    }

    /// Every counter in this scope, with the prefix stripped.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let n = self.prefix.len();
        self.metrics
            .counters
            .range(&self.prefix)
            .map(move |(k, v)| (&k[n..], *v))
    }

    /// Every gauge in this scope, with the prefix stripped.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        let n = self.prefix.len();
        self.metrics
            .gauges
            .range(&self.prefix)
            .map(move |(k, v)| (&k[n..], *v))
    }

    /// Every histogram in this scope, with the prefix stripped.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        let n = self.prefix.len();
        self.metrics
            .histograms
            .range(&self.prefix)
            .map(move |(k, v)| (&k[n..], v))
    }

    /// An owned snapshot of just this scope, prefix stripped.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().map(|(k, v)| (k.to_owned(), v)).collect(),
            gauges: self.gauges().map(|(k, v)| (k.to_owned(), v)).collect(),
            histograms: self
                .histograms()
                .map(|(k, v)| (k.to_owned(), v.clone()))
                .collect(),
        }
    }
}

/// Owned, ordered copy of a [`Metrics`] registry; renders to
/// deterministic JSON for the bench exporter and for golden files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON value with fully deterministic key order
    /// and integer-only numbers, so two identical runs write
    /// byte-identical output.
    pub fn to_json(&self) -> Json {
        let histograms = self.histograms.iter().map(|(name, h)| {
            // Exemplars render sparse — [bucket index, corr] pairs —
            // but the key is always present, so exemplar-vs-none
            // snapshots differ only in values.
            let exemplars = h
                .bucket_exemplars()
                .iter()
                .enumerate()
                .filter(|&(_, &corr)| corr != 0)
                .map(|(i, &corr)| Json::array(Layout::Inline, [i as u64, corr]));
            let h = Json::inline()
                .with("count", h.count())
                .with("sum_ns", h.sum_ns())
                .with("min_ns", h.min().as_nanos())
                .with("max_ns", h.max().as_nanos())
                .with("max_corr", h.max_corr())
                .with(
                    "buckets",
                    Json::array(Layout::Inline, h.bucket_counts().iter().copied()),
                )
                .with("exemplars", Json::array(Layout::Inline, exemplars));
            (name, h)
        });
        Json::block()
            .with(
                "counters",
                Json::object(Layout::Block, self.counters.iter().map(|(k, &v)| (k, v))),
            )
            .with(
                "gauges",
                Json::object(Layout::Block, self.gauges.iter().map(|(k, &v)| (k, v))),
            )
            .with(
                "bucket_bounds_ns",
                Json::array(Layout::Inline, LATENCY_BUCKET_BOUNDS_NS),
            )
            .with("histograms", Json::object(Layout::Block, histograms))
    }
}

/// Bounded structured span log and metrics registry.
///
/// The span log is a ring journal: when full it evicts its oldest half,
/// so it always holds the most recent window at full fidelity. Every
/// evicted span is counted in the cumulative `trace.ring_overwrites`
/// counter. Eviction happens in half-capacity chunks, so the amortized
/// cost per record stays O(1).
///
/// The span journal stores each span as an 88-byte `Copy` slot whose
/// strings are indexes into per-trace tables, so recording a span
/// allocates nothing once the journal has grown, and evicting drops
/// nothing (a [`DetailArg::Text`] detail aside). Readers get [`SpanRecord`]s built from the slots:
/// [`spans`](Trace::spans) iterates them in begin order and
/// [`span_record`](Trace::span_record) looks one up by id.
#[derive(Debug)]
pub struct Trace {
    spans: SpanJournal,
    ring_overwrites_folded: u64,
    metrics: Metrics,
}

impl Trace {
    /// Creates a trace whose span journal holds at most `capacity`
    /// records (at least 2). A full journal keeps at least its newest
    /// `capacity / 2` records.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            spans: SpanJournal::new(capacity),
            ring_overwrites_folded: 0,
            metrics: Metrics::default(),
        }
    }

    /// Cumulative spans evicted by the ring.
    pub fn ring_overwrites(&self) -> u64 {
        self.spans.overwrites()
    }

    /// Does nothing. A trace once kept a second, free-text event log
    /// that this switched off; the log is gone, and the method stays
    /// only because the `perfbench` workloads still call it.
    pub fn set_log_enabled(&mut self, _enabled: bool) {}

    /// The span source of a process name, minted on first use. Spans
    /// recorded through it ([`Trace::span_from`],
    /// [`Trace::span_begin_from`]) skip the name lookup.
    pub fn span_source(&mut self, name: &str) -> SpanSource {
        self.spans.source(name)
    }

    /// The name a span source was resolved from.
    pub(crate) fn source_name(&self, source: SpanSource) -> &str {
        self.spans.source_name(source)
    }

    /// Opens a span for a resolved source (see [`Trace::span_begin`]).
    pub fn span_begin_from(
        &mut self,
        corr: u64,
        time: SimTime,
        source: SpanSource,
        stage: &'static str,
        detail: SpanDetail,
    ) -> SpanId {
        self.spans.record(corr, time, source, stage, detail, true)
    }

    /// Records an instant span for a resolved source (see
    /// [`Trace::span`]).
    pub fn span_from(
        &mut self,
        corr: u64,
        time: SimTime,
        source: SpanSource,
        stage: &'static str,
        detail: SpanDetail,
    ) -> SpanId {
        self.spans.record(corr, time, source, stage, detail, false)
    }

    /// Opens a structured span on a correlated path. The span's parent
    /// is the innermost span still open on the same correlation id.
    pub fn span_begin(
        &mut self,
        corr: u64,
        time: SimTime,
        source: &str,
        stage: &'static str,
        detail: impl Into<SpanDetail>,
    ) -> SpanId {
        let source = self.spans.source(source);
        self.span_begin_from(corr, time, source, stage, detail.into())
    }

    /// Closes a span, clamping the end to be no earlier than its start.
    /// Returns the span's duration, or `None` if the id is
    /// [`SpanId::NONE`], unknown, evicted or already closed.
    pub fn span_end(&mut self, id: SpanId, time: SimTime) -> Option<SimDuration> {
        self.spans.end(id, time)
    }

    /// Records an instant (zero-duration) span on a correlated path —
    /// a point event like `connect` or `deliver.local` — as one closed
    /// record.
    pub fn span(
        &mut self,
        corr: u64,
        time: SimTime,
        source: &str,
        stage: &'static str,
        detail: impl Into<SpanDetail>,
    ) -> SpanId {
        let source = self.spans.source(source);
        self.span_from(corr, time, source, stage, detail.into())
    }

    /// All retained spans, in begin order.
    pub fn spans(&self) -> impl DoubleEndedIterator<Item = SpanRecord> + ExactSizeIterator + '_ {
        self.spans.iter_from(0)
    }

    /// The retained spans whose ids come after `id`, in begin order.
    pub fn spans_after(
        &self,
        id: SpanId,
    ) -> impl DoubleEndedIterator<Item = SpanRecord> + ExactSizeIterator + '_ {
        self.spans.iter_from(id.0.saturating_add(1))
    }

    /// The span of id `id`, unless it is [`SpanId::NONE`], unknown or
    /// evicted.
    pub fn span_record(&self, id: SpanId) -> Option<SpanRecord> {
        self.spans.get(id)
    }

    /// The spans of one correlated path, in begin order.
    pub fn spans_for(&self, corr: u64) -> impl Iterator<Item = SpanRecord> + '_ {
        self.spans.iter_corr(corr)
    }

    /// The journal the span readers above materialize from; the
    /// attribution fold reads its slots directly.
    pub(crate) fn journal_mut(&mut self) -> &mut SpanJournal {
        &mut self.spans
    }

    /// Number of spans still open (begun, never ended, not evicted).
    pub fn open_spans(&self) -> usize {
        self.spans.open_spans()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics registry, mutably.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Folds the ring evictions into the metrics registry as the
    /// cumulative `trace.ring_overwrites` counter (adding the delta
    /// since the last fold, so repeated runs never double-count). The
    /// key is always written — every exported snapshot records whether
    /// its journal wrapped, even when the answer is zero.
    pub fn sync_ring_stats(&mut self) {
        let ring = self.spans.overwrites() - self.ring_overwrites_folded;
        self.metrics.counter_add("trace.ring_overwrites", ring);
        self.ring_overwrites_folded = self.spans.overwrites();
    }

    /// Folds the thread-local payload copy accounting into the metrics
    /// registry — counters `payload.allocs`, `payload.bytes_copied` and
    /// `payload.shared_clones` — draining it. The world calls this at
    /// the end of every run and drains the accounting again when a run
    /// *starts*, so with several worlds on one thread the counters can
    /// no longer leak from one world's snapshot into the next.
    pub fn sync_payload_stats(&mut self) {
        let s = crate::payload::take_stats();
        if s.allocs > 0 {
            self.metrics.counter_add("payload.allocs", s.allocs);
        }
        if s.bytes_copied > 0 {
            self.metrics
                .counter_add("payload.bytes_copied", s.bytes_copied);
        }
        if s.shared_clones > 0 {
            self.metrics
                .counter_add("payload.shared_clones", s.shared_clones);
        }
    }

    /// Adds `n` to a counter.
    pub fn bump<'a>(&mut self, counter: impl Into<MetricRef<'a>>, n: u64) {
        self.metrics.counter_add(counter, n);
    }

    /// Returns the value of a counter (zero if never bumped).
    pub fn counter(&self, counter: &str) -> u64 {
        self.metrics.counter(counter)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.metrics.counters()
    }

    /// Clears spans and metrics.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.ring_overwrites_folded = 0;
        self.metrics.clear();
    }
}

impl Default for Trace {
    /// A journal of 50,000 spans: the window incident bundles are cut
    /// from.
    fn default() -> Trace {
        Trace::new(50_000)
    }
}

/// Aggregate statistics for one network segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Frames successfully transmitted (including lost-after-tx frames).
    pub frames: u64,
    /// Payload bytes carried by those frames (excluding link overhead).
    pub payload_bytes: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
    /// Total time the medium was occupied.
    pub busy: SimDuration,
}

impl SegmentStats {
    /// Mean utilization of the medium over `elapsed` virtual time, in
    /// `[0, 1]`. Returns 0 for zero elapsed time.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::default();
        t.bump("frames", 2);
        t.bump("frames", 3);
        assert_eq!(t.counter("frames"), 5);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn span_ring_keeps_the_tail_and_counts_overwrites() {
        // A full journal overwrites the OLDEST spans and counts them as
        // ring overwrites; the tail survives.
        let mut ring = Trace::new(4);
        for i in 0..10 {
            ring.span(0, SimTime::from_nanos(i), "src", "stage", format!("{i}"));
        }
        ring.sync_ring_stats();
        assert_eq!(
            ring.counter("trace.ring_overwrites"),
            ring.ring_overwrites()
        );
        assert!(ring.ring_overwrites() > 0);
        assert!(ring.spans().any(|s| s.detail.to_string() == "9"));
        assert!(ring.spans().all(|s| s.detail.to_string() != "0"));
        assert_eq!(
            ring.ring_overwrites() + ring.spans().len() as u64,
            10,
            "every span is either retained or counted as overwritten"
        );
        // The folded counter is cumulative, not per-fold delta.
        ring.sync_ring_stats();
        assert_eq!(
            ring.counter("trace.ring_overwrites"),
            ring.ring_overwrites()
        );
    }

    #[test]
    fn ring_evicts_open_spans_cleanly() {
        let mut t = Trace::new(4);
        // An open span on corr 7, then enough instant spans to evict it.
        let stale = t.span_begin(7, SimTime::ZERO, "src", "outer", "");
        for i in 0..8 {
            t.span(0, SimTime::from_nanos(i), "src", "filler", format!("{i}"));
        }
        assert!(t.spans().all(|s| s.stage != "outer"));
        assert_eq!(t.open_spans(), 0);
        // Ending the evicted span is a no-op, not a panic or corruption.
        assert_eq!(t.span_end(stale, SimTime::from_nanos(99)), None);
        // A new span on the same corr must not inherit the dead parent.
        let fresh = t.span_begin(7, SimTime::from_nanos(100), "src", "inner", "");
        let rec = t.spans().find(|s| s.id == fresh).unwrap();
        assert_eq!(rec.parent, None);
        assert!(t.span_end(fresh, SimTime::from_nanos(101)).is_some());
    }

    #[test]
    fn spans_keep_measuring_after_the_log_fills() {
        // A drop-on-full log stopped minting ids here, and every
        // duration read from `span_end` went blind for the rest of the
        // run.
        let mut t = Trace::new(4);
        for i in 0..10 {
            t.span(1, SimTime::from_nanos(i), "rt0", "deliver.local", "");
        }
        let id = t.span_begin(1, SimTime::from_millis(1), "rt0", "transport.send", "");
        assert!(id.is_recorded());
        assert_eq!(
            t.span_end(id, SimTime::from_millis(3)),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(t.spans().last().unwrap().id, id);
    }

    #[test]
    fn utilization_is_bounded() {
        let stats = SegmentStats {
            busy: SimDuration::from_millis(500),
            ..SegmentStats::default()
        };
        let u = stats.utilization(SimDuration::from_secs(1));
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(stats.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::default();
        // Exactly on a bound → that bucket (le semantics).
        h.record(SimDuration::from_nanos(1_000));
        // One over a bound → next bucket.
        h.record(SimDuration::from_nanos(1_001));
        // Zero → first bucket.
        h.record(SimDuration::ZERO);
        // Far past the last bound → overflow bucket.
        h.record(SimDuration::from_secs(1_000));
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2, "0 and 1000 ns share the first bucket");
        assert_eq!(counts[1], 1, "1001 ns lands in the 2 µs bucket");
        assert_eq!(*counts.last().unwrap(), 1, "overflow bucket");
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::from_secs(1_000));
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile_bound_ns(0.5), None);
        for ms in [1u64, 2, 3, 4] {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.mean(), SimDuration::from_nanos(2_500_000));
        // p50 falls in the 2 ms bucket; p100 is the exact recorded max.
        assert_eq!(h.quantile_bound_ns(0.5), Some(2_000_000));
        assert_eq!(h.quantile_bound_ns(1.0), Some(4_000_000));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_bound_ns(q), None);
        }
    }

    #[test]
    fn quantile_of_single_value_is_exact() {
        let mut h = Histogram::default();
        h.record(SimDuration::from_millis(3));
        // The 3 ms value lands in the 5 ms bucket, but the bound is
        // clamped to the recorded max, so every quantile is exact here.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_bound_ns(q), Some(3_000_000));
        }
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_recorded_max() {
        let mut h = Histogram::default();
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_secs(200)); // beyond the last bound
        assert_eq!(h.quantile_bound_ns(0.5), Some(10_000));
        // p99 ranks into the overflow bucket: the exact max is the
        // tightest bound available.
        assert_eq!(h.quantile_bound_ns(0.99), Some(200_000_000_000));
        assert_eq!(h.quantile_bound_ns(1.0), Some(200_000_000_000));
    }

    #[test]
    fn gauges_and_scoping() {
        let mut m = Metrics::default();
        m.counter_add("rt0.advertisements_sent", 3);
        m.counter_add("rt1.advertisements_sent", 7);
        m.gauge_set("rt0.buffer_depth", 42);
        m.gauge_add("rt0.buffer_depth", -2);
        m.observe("rt0.drain_wait", SimDuration::from_millis(1));
        let rt0 = m.scoped("rt0");
        assert_eq!(rt0.counter("advertisements_sent"), 3);
        assert_eq!(rt0.gauge("buffer_depth"), 40);
        assert_eq!(rt0.histogram("drain_wait").unwrap().count(), 1);
        let names: Vec<&str> = rt0.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["advertisements_sent"]);
        let rt1 = m.scoped("rt1");
        assert_eq!(rt1.counter("advertisements_sent"), 7);
        assert_eq!(rt1.gauge("buffer_depth"), 0);
    }

    #[test]
    fn metric_handles_agree_with_names() {
        let mut m = Metrics::default();
        let outputs = MetricId::new("rt7.outputs");
        assert_eq!(
            MetricId::new("rt7.outputs"),
            outputs,
            "resolved twice, one id"
        );
        assert_eq!(outputs.name(), "rt7.outputs");
        let depth = MetricId::new("rt7.buffer_depth_bytes");
        let wait = MetricId::new("rt7.queue_wait");
        // Handles and names reach the same slots, in any order.
        m.counter_add(outputs, 2);
        m.counter_add("rt7.outputs", 3);
        m.counter_add("rt7.advertisements_sent", 1);
        m.gauge_set(depth, 40);
        m.gauge_add("rt7.buffer_depth_bytes", 2);
        m.observe_corr(wait, SimDuration::from_micros(5), 9);
        m.observe("rt7.queue_wait", SimDuration::from_micros(7));
        assert_eq!(m.counter("rt7.outputs"), 5);
        assert_eq!(m.gauge("rt7.buffer_depth_bytes"), 42);
        assert_eq!(m.histogram("rt7.queue_wait").unwrap().count(), 2);
        // Reads come back by name, in name order, whatever the
        // resolution order was.
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["rt7.advertisements_sent", "rt7.outputs"]);
        let rt7 = m.scoped("rt7");
        let scoped: Vec<(&str, u64)> = rt7.counters().collect();
        assert_eq!(scoped, [("advertisements_sent", 1), ("outputs", 5)]);
        let snap = m.snapshot();
        assert_eq!(
            snap.counters.iter().collect::<Vec<_>>(),
            [
                (&"rt7.advertisements_sent".to_owned(), &1),
                (&"rt7.outputs".to_owned(), &5)
            ]
        );
        assert_eq!(snap.gauges["rt7.buffer_depth_bytes"], 42);
        assert_eq!(snap.histograms["rt7.queue_wait"].max_corr(), 0);
        // A resolved handle that was never written exports nothing.
        let _unused = MetricId::new("rt7.never_written");
        assert!(!m.snapshot().counters.contains_key("rt7.never_written"));
        // The same handle addresses a second registry independently.
        let mut other = Metrics::default();
        other.counter_add(outputs, 1);
        assert_eq!(other.counter("rt7.outputs"), 1);
        assert_eq!(m.counter("rt7.outputs"), 5);
        // Saturation through a handle still bumps the marker.
        m.counter_add(outputs, u64::MAX);
        assert_eq!(m.counter("rt7.outputs"), u64::MAX);
        assert_eq!(m.counter("trace.counter_saturated"), 1);
        m.gauge_add(depth, i64::MAX);
        assert_eq!(m.gauge("rt7.buffer_depth_bytes"), i64::MAX);
        assert_eq!(m.counter("trace.counter_saturated"), 2);
    }

    #[test]
    fn span_details_render_at_export() {
        let d = SpanDetail::new(
            &["dst=rt", "/t", ".", " (late)"],
            [DetailArg::U64(1), DetailArg::U64(4), DetailArg::Str("in")],
        );
        assert_eq!(d.to_string(), "dst=rt1/t4.in (late)");
        let wait = SpanDetail::new(&["", ""], [DetailArg::Dur(SimDuration::from_millis(2))]);
        assert_eq!(wait.to_string(), SimDuration::from_millis(2).to_string());
        assert_eq!(SpanDetail::from(""), SpanDetail::EMPTY);
        assert_eq!(SpanDetail::from(String::from("x=1")).to_string(), "x=1");
        let mut t = Trace::default();
        t.span(1, SimTime::ZERO, "rt0", "queue.wait", d);
        assert_eq!(
            t.spans().next().unwrap().to_string(),
            format!(
                "[{0}..{0}] corr=0x1 rt0 queue.wait: dst=rt1/t4.in (late)",
                SimTime::ZERO
            )
        );
    }

    #[test]
    fn counter_add_saturates_and_marks() {
        let mut m = Metrics::default();
        m.counter_add("c", u64::MAX - 1);
        m.counter_add("c", 5);
        assert_eq!(m.counter("c"), u64::MAX);
        assert_eq!(m.counter("trace.counter_saturated"), 1);
        // Already clamped: stays clamped, marker keeps counting.
        m.counter_add("c", 1);
        assert_eq!(m.counter("c"), u64::MAX);
        assert_eq!(m.counter("trace.counter_saturated"), 2);
        // Non-overflowing adds never touch the marker.
        m.counter_add("d", 7);
        assert_eq!(m.counter("trace.counter_saturated"), 2);
    }

    #[test]
    fn gauge_add_saturates_both_directions() {
        let mut m = Metrics::default();
        m.gauge_set("up", i64::MAX - 1);
        m.gauge_add("up", 10);
        assert_eq!(m.gauge("up"), i64::MAX);
        m.gauge_set("down", i64::MIN + 1);
        m.gauge_add("down", -10);
        assert_eq!(m.gauge("down"), i64::MIN);
        assert_eq!(m.counter("trace.counter_saturated"), 2);
    }

    #[test]
    fn histogram_record_saturates_counts() {
        let mut h = Histogram {
            counts: [u64::MAX; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
            count: u64::MAX,
            sum_ns: u128::MAX,
            min_ns: 0,
            max_ns: 0,
            ..Histogram::default()
        };
        h.record(SimDuration::from_micros(1));
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum_ns(), u128::MAX);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let mut m = Metrics::default();
        m.counter_add("b", 2);
        m.counter_add("a", 1);
        m.gauge_set("g", -5);
        m.observe("lat", SimDuration::from_micros(3));
        let j1 = m.snapshot().to_json().document();
        let j2 = m.snapshot().to_json().document();
        assert_eq!(j1, j2);
        // Keys appear sorted regardless of insertion order.
        let a = j1.find("\"a\"").unwrap();
        let b = j1.find("\"b\"").unwrap();
        assert!(a < b);
        assert!(j1.contains("\"g\": -5"));
        assert!(j1.contains("\"count\": 1"));
    }

    #[test]
    fn spans_filter_by_correlation_id() {
        let mut t = Trace::default();
        t.span(7, SimTime::ZERO, "rt0", "connect", "src=alpha");
        t.span(9, SimTime::from_millis(1), "rt0", "connect", "src=beta");
        t.span(
            7,
            SimTime::from_millis(2),
            "upnp-mapper",
            "bridge.upnp.input",
            "port=in",
        );
        let path: Vec<&str> = t.spans_for(7).map(|s| s.stage).collect();
        assert_eq!(path, vec!["connect", "bridge.upnp.input"]);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn structured_spans_nest_and_measure() {
        let mut t = Trace::default();
        let outer = t.span_begin(7, SimTime::ZERO, "rt0", "queue.wait", "");
        let inner = t.span_begin(7, SimTime::from_millis(1), "rt0", "transport.send", "");
        // The instant span nests under the innermost open span.
        let instant = t.span(7, SimTime::from_millis(2), "rt1", "deliver.local", "");
        assert_eq!(
            t.span_end(inner, SimTime::from_millis(3)),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(
            t.span_end(outer, SimTime::from_millis(4)),
            Some(SimDuration::from_millis(4))
        );
        let spans: Vec<SpanRecord> = t.spans().collect();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(inner));
        assert_eq!(spans[2].id, instant);
        assert_eq!(spans[2].duration(), Some(SimDuration::ZERO));
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn span_end_is_idempotent_and_clamped() {
        let mut t = Trace::default();
        let id = t.span_begin(1, SimTime::from_millis(5), "rt0", "x", "");
        // End before start clamps to zero duration.
        assert_eq!(t.span_end(id, SimTime::ZERO), Some(SimDuration::ZERO));
        assert_eq!(t.span_end(id, SimTime::from_secs(1)), None, "double end");
        assert_eq!(t.span_end(SpanId::NONE, SimTime::ZERO), None);
        assert_eq!(
            t.span_record(id).unwrap().end,
            Some(SimTime::from_millis(5))
        );
    }

    #[test]
    fn full_span_log_keeps_minting_and_sentinel_end_is_noop() {
        let mut t = Trace::new(1);
        let a = t.span_begin(1, SimTime::ZERO, "rt0", "evicted", "");
        let b = t.span_begin(1, SimTime::ZERO, "rt0", "kept", "");
        let c = t.span_begin(1, SimTime::ZERO, "rt0", "newest", "");
        assert!(a.is_recorded() && b.is_recorded() && c.is_recorded());
        assert_eq!(t.ring_overwrites(), 1);
        assert_eq!(t.span_end(a, SimTime::from_millis(1)), None, "evicted");
        assert_eq!(t.span_end(SpanId::NONE, SimTime::from_millis(1)), None);
        assert_eq!(
            t.span_end(c, SimTime::from_millis(1)),
            Some(SimDuration::from_millis(1))
        );
        assert_eq!(t.span_end(c, SimTime::from_millis(2)), None, "double end");
        // Ids past the newest record are unknown, not a panic.
        assert_eq!(t.span_end(SpanId(c.0 + 1), SimTime::ZERO), None);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.open_spans(), 1);
    }

    #[test]
    fn ring_stats_fold_as_deltas_and_always_export() {
        let mut t = Trace::new(2);
        t.sync_ring_stats();
        // Traces that never wrapped still export the key, at zero.
        assert_eq!(t.counter("trace.ring_overwrites"), 0);
        assert!(t
            .metrics()
            .snapshot()
            .counters
            .contains_key("trace.ring_overwrites"));
        for _ in 0..3 {
            t.span(1, SimTime::ZERO, "src", "stage", "");
        }
        t.sync_ring_stats();
        assert_eq!(t.counter("trace.ring_overwrites"), 1);
        // A second fold with no new overwrites adds nothing.
        t.sync_ring_stats();
        assert_eq!(t.counter("trace.ring_overwrites"), 1);
    }
}
