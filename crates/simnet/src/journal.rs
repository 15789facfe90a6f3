//! The span journal behind [`Trace`](crate::Trace): a fixed-capacity
//! ring of compact slots.
//!
//! A slot is `Copy`, owns nothing and takes 88 bytes: the correlation
//! id, start, end and parent as integers, and every string as a `u32`
//! index into a per-journal table. The process name indexes the source
//! table, resolved once per process ([`SpanJournal::source`]); the
//! stage, the detail pieces and each [`DetailArg::Str`] index tables of
//! `&'static` values resolved by address, so recording a span copies no
//! string and touches no reference count, and once the ring, the tables
//! and the open-span stacks have grown it allocates nothing. The rare
//! [`DetailArg::Text`] is the one exception: its shared text sits in a
//! side table that eviction prunes.
//!
//! A full ring evicts its oldest half by advancing its head: no slot is
//! moved or dropped, and only the open-span stacks are revisited.
//! Readers get [`SpanRecord`]s materialized from the slots on demand.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};
use crate::trace::{DetailArg, SpanDetail, SpanId, SpanRecord, DETAIL_ARGS};

/// A multiplicative hash for integer keys (correlation ids, addresses):
/// one multiply per word where the default hasher runs SipHash.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // The product's high bits mix every input bit; rotate them into
        // the low bits the table indexes by.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Lines of an [`Interner`]'s direct-mapped address cache.
const CACHE_LINES: usize = 64;

/// A table of `&'static` values (stages, detail pieces, static detail
/// text), each resolved to a dense `u32` by its address and size. Two
/// equal strings at different addresses take two entries, which costs a
/// few bytes; a lookup never hashes text. A direct-mapped cache serves
/// the few literals a hot path records before the map is consulted.
struct Interner<T: ?Sized + 'static> {
    values: Vec<&'static T>,
    by_addr: IntMap<(usize, usize), u32>,
    /// Boxed, so the `Trace` the world holds inline stays small.
    cache: Box<[(usize, usize, u32); CACHE_LINES]>,
}

impl<T: ?Sized> Interner<T> {
    fn new() -> Interner<T> {
        Interner {
            values: Vec::new(),
            by_addr: IntMap::default(),
            // Address zero is never a reference's: every line starts empty.
            cache: Box::new([(0, 0, 0); CACHE_LINES]),
        }
    }

    /// The index of `value`, minting it on first use.
    fn index(&mut self, value: &'static T) -> u32 {
        let key = (
            (value as *const T).cast::<u8>() as usize,
            std::mem::size_of_val(value),
        );
        let line = (key.0 >> 3 ^ key.0 >> 11) % CACHE_LINES;
        let (addr, size, index) = self.cache[line];
        if (addr, size) == key {
            return index;
        }
        let values = &mut self.values;
        let index = *self.by_addr.entry(key).or_insert_with(|| {
            values.push(value);
            u32::try_from(values.len() - 1).expect("span string table overflow")
        });
        self.cache[line] = (key.0, key.1, index);
        index
    }

    fn get(&self, index: u32) -> &'static T {
        self.values[index as usize]
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Interner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.values).finish()
    }
}

/// A span source (a process name) resolved to its index in a trace's
/// source table by [`Trace::span_source`](crate::Trace::span_source).
/// [`World::add_process`](crate::World::add_process) resolves each
/// process's name once, so recording a span never looks a name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSource(u32);

/// How a slot's packed argument reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgKind {
    /// The value itself.
    U64,
    /// An index into the static string table.
    Str,
    /// Nanoseconds.
    Dur,
    /// A sequence number in the text side table.
    Text,
}

/// One recorded span. Its id is implied by its position in the ring.
#[derive(Debug, Clone, Copy)]
struct SpanSlot {
    corr: u64,
    /// Start, in virtual nanoseconds.
    start: u64,
    /// End, in virtual nanoseconds; meaningless while `open`.
    end: u64,
    /// Parent id; zero (never minted) for none.
    parent: u64,
    args: [u64; DETAIL_ARGS],
    source: SpanSource,
    stage: u32,
    pieces: u32,
    kinds: [ArgKind; DETAIL_ARGS],
    open: bool,
}

/// The span ring: `capacity` slots, holding the spans of ids
/// `first..next` (in begin order) from slot `head` on, wrapping.
#[derive(Debug)]
pub(crate) struct SpanJournal {
    capacity: usize,
    /// Grows to `capacity` once, then is overwritten in place.
    slots: Vec<SpanSlot>,
    /// Slot of the span with id `first`.
    head: usize,
    /// Oldest retained id (equal to `next` when empty).
    first: u64,
    /// The id the next span takes.
    next: u64,
    /// Cumulative spans evicted.
    overwrites: u64,
    /// Per-correlation-id stack of open spans (for parent links), in
    /// begin order. A stack may be empty until the next eviction prunes
    /// it, so a path's begin/end pairs reuse one stack.
    open: IntMap<u64, Vec<SpanId>>,
    /// Pruned stacks, kept for the next correlation id that opens a
    /// span, so a steady state of begins allocates no stack.
    spare_stacks: Vec<Vec<SpanId>>,
    /// The `DetailArg::Text` values of retained spans, oldest first,
    /// each with the id of its span.
    texts: VecDeque<(u64, Arc<str>)>,
    /// Sequence number of `texts[0]`.
    texts_base: u64,
    sources: Vec<Arc<str>>,
    source_ids: HashMap<Arc<str>, SpanSource>,
    strs: Interner<str>,
    pieces: Interner<[&'static str]>,
}

impl SpanJournal {
    /// An empty journal of `capacity` slots (at least 2).
    pub(crate) fn new(capacity: usize) -> SpanJournal {
        SpanJournal {
            capacity: capacity.max(2),
            slots: Vec::new(),
            head: 0,
            first: 1,
            next: 1,
            overwrites: 0,
            open: IntMap::default(),
            spare_stacks: Vec::new(),
            texts: VecDeque::new(),
            texts_base: 0,
            sources: Vec::new(),
            source_ids: HashMap::new(),
            strs: Interner::new(),
            pieces: Interner::new(),
        }
    }

    /// The source index of a process name, minting it on first use.
    pub(crate) fn source(&mut self, name: &str) -> SpanSource {
        if let Some(&id) = self.source_ids.get(name) {
            return id;
        }
        let id = SpanSource(u32::try_from(self.sources.len()).expect("span source table overflow"));
        let name: Arc<str> = name.into();
        self.sources.push(Arc::clone(&name));
        self.source_ids.insert(name, id);
        id
    }

    /// The name a source index was resolved from.
    pub(crate) fn source_name(&self, source: SpanSource) -> &Arc<str> {
        &self.sources[source.0 as usize]
    }

    /// Spans retained.
    pub(crate) fn len(&self) -> usize {
        (self.next - self.first) as usize
    }

    /// Cumulative spans evicted.
    pub(crate) fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// Spans still open (begun, never ended, not evicted).
    pub(crate) fn open_spans(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// The slot of a retained id.
    fn slot_of(&self, id: u64) -> usize {
        let at = self.head + (id - self.first) as usize;
        if at >= self.capacity {
            at - self.capacity
        } else {
            at
        }
    }

    /// Evicts the oldest half. An evicted span that is still open can
    /// never be closed: its id leaves the open stacks, so later spans on
    /// the same correlation id do not inherit a dead parent.
    fn evict_oldest_half(&mut self) {
        let evict = self.capacity / 2;
        self.first += evict as u64;
        self.head = (self.head + evict) % self.capacity;
        self.overwrites += evict as u64;
        let first = SpanId(self.first);
        let spare = &mut self.spare_stacks;
        self.open.retain(|_, stack| {
            stack.retain(|&id| id >= first);
            if stack.is_empty() {
                spare.push(std::mem::take(stack));
            }
            !stack.is_empty()
        });
        while self.texts.front().is_some_and(|&(id, _)| id < first.0) {
            self.texts.pop_front();
            self.texts_base += 1;
        }
    }

    /// Records one span, minting its id, evicting the oldest half of a
    /// full ring first. Its parent is the innermost span still open on
    /// the same correlation id; an `open` span becomes the innermost.
    pub(crate) fn record(
        &mut self,
        corr: u64,
        time: SimTime,
        source: SpanSource,
        stage: &'static str,
        detail: SpanDetail,
        open: bool,
    ) -> SpanId {
        if self.len() >= self.capacity {
            self.evict_oldest_half();
        }
        let id = self.next;
        self.next += 1;
        let parent = self
            .open
            .get(&corr)
            .and_then(|stack| stack.last())
            .map_or(0, |p| p.0);
        let mut slot = SpanSlot {
            corr,
            start: time.as_nanos(),
            end: time.as_nanos(),
            parent,
            args: [0; DETAIL_ARGS],
            source,
            stage: self.strs.index(stage),
            pieces: self.pieces.index(detail.pieces),
            kinds: [ArgKind::U64; DETAIL_ARGS],
            open,
        };
        let used = detail.pieces.len().saturating_sub(1);
        for (i, arg) in detail.args.into_iter().enumerate().take(used) {
            (slot.kinds[i], slot.args[i]) = match arg {
                DetailArg::U64(n) => (ArgKind::U64, n),
                DetailArg::Str(s) => (ArgKind::Str, u64::from(self.strs.index(s))),
                DetailArg::Dur(d) => (ArgKind::Dur, d.as_nanos()),
                DetailArg::Text(text) => {
                    let seq = self.texts_base + self.texts.len() as u64;
                    self.texts.push_back((id, text));
                    (ArgKind::Text, seq)
                }
            };
        }
        let at = self.slot_of(id);
        if at < self.slots.len() {
            self.slots[at] = slot;
        } else {
            // Filling for the first time: one allocation of the whole
            // ring, whose pages are touched only as slots fill.
            if self.slots.capacity() == 0 {
                self.slots.reserve_exact(self.capacity);
            }
            self.slots.push(slot);
        }
        if open {
            let spare = &mut self.spare_stacks;
            self.open
                .entry(corr)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(SpanId(id));
        }
        SpanId(id)
    }

    /// Closes a span, clamping the end to be no earlier than its start.
    /// Returns the span's duration, or `None` if the id is
    /// [`SpanId::NONE`], unknown, evicted or already closed.
    pub(crate) fn end(&mut self, id: SpanId, time: SimTime) -> Option<SimDuration> {
        if id.0 < self.first || id.0 >= self.next {
            return None;
        }
        let at = self.slot_of(id.0);
        let slot = &mut self.slots[at];
        if !slot.open {
            return None;
        }
        let end = time.as_nanos().max(slot.start);
        slot.end = end;
        slot.open = false;
        let (corr, start) = (slot.corr, slot.start);
        if let Some(stack) = self.open.get_mut(&corr) {
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
        }
        Some(SimDuration::from_nanos(end - start))
    }

    /// The record of a retained span.
    fn materialize(&self, id: u64) -> SpanRecord {
        let s = &self.slots[self.slot_of(id)];
        let mut detail = SpanDetail {
            pieces: self.pieces.get(s.pieces),
            ..SpanDetail::EMPTY
        };
        for (i, arg) in detail.args.iter_mut().enumerate() {
            let v = s.args[i];
            *arg = match s.kinds[i] {
                ArgKind::U64 => DetailArg::U64(v),
                ArgKind::Str => DetailArg::Str(self.strs.get(v as u32)),
                ArgKind::Dur => DetailArg::Dur(SimDuration::from_nanos(v)),
                ArgKind::Text => {
                    DetailArg::Text(Arc::clone(&self.texts[(v - self.texts_base) as usize].1))
                }
            };
        }
        SpanRecord {
            id: SpanId(id),
            parent: (s.parent != 0).then_some(SpanId(s.parent)),
            corr: s.corr,
            source: Arc::clone(self.source_name(s.source)),
            stage: self.strs.get(s.stage),
            detail,
            start: SimTime::from_nanos(s.start),
            end: (!s.open).then_some(SimTime::from_nanos(s.end)),
        }
    }

    /// The record of span `id`, if it is retained.
    pub(crate) fn get(&self, id: SpanId) -> Option<SpanRecord> {
        (self.first..self.next)
            .contains(&id.0)
            .then(|| self.materialize(id.0))
    }

    /// The retained spans of ids `from..`, in begin order.
    pub(crate) fn iter_from(
        &self,
        from: u64,
    ) -> impl DoubleEndedIterator<Item = SpanRecord> + ExactSizeIterator + '_ {
        let skip = from.saturating_sub(self.first).min(self.len() as u64) as usize;
        (skip..self.len()).map(move |i| self.materialize(self.first + i as u64))
    }

    /// The retained spans of one correlation id, in begin order.
    pub(crate) fn iter_corr(&self, corr: u64) -> impl Iterator<Item = SpanRecord> + '_ {
        (self.first..self.next)
            .filter(move |&id| self.slots[self.slot_of(id)].corr == corr)
            .map(|id| self.materialize(id))
    }

    /// Forgets every span and restarts ids at 1. The string and source
    /// tables stay: processes keep their resolved sources.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.first = 1;
        self.next = 1;
        self.overwrites = 0;
        self.open.clear();
        self.texts.clear();
        self.texts_base = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::{check_cases, SimRng};

    /// The journal the ring replaced, kept as an oracle: a `Vec` of
    /// records that drains its oldest half when full, with the open
    /// stacks in a `BTreeMap` pruned by a scan of the evicted records.
    struct ReferenceJournal {
        capacity: usize,
        spans: Vec<SpanRecord>,
        next: u64,
        overwrites: u64,
        open: BTreeMap<u64, Vec<SpanId>>,
    }

    impl ReferenceJournal {
        fn new(capacity: usize) -> ReferenceJournal {
            ReferenceJournal {
                capacity: capacity.max(2),
                spans: Vec::new(),
                next: 1,
                overwrites: 0,
                open: BTreeMap::new(),
            }
        }

        fn record(
            &mut self,
            corr: u64,
            time: SimTime,
            source: &str,
            stage: &'static str,
            detail: SpanDetail,
            open: bool,
        ) -> SpanId {
            if self.spans.len() >= self.capacity {
                let evict = self.capacity / 2;
                for s in self.spans[..evict].iter().filter(|s| s.end.is_none()) {
                    if let Some(stack) = self.open.get_mut(&s.corr) {
                        stack.retain(|&open| open != s.id);
                    }
                }
                self.open.retain(|_, stack| !stack.is_empty());
                self.spans.drain(..evict);
                self.overwrites += evict as u64;
            }
            let id = SpanId(self.next);
            self.next += 1;
            let parent = self.open.get(&corr).and_then(|stack| stack.last().copied());
            self.spans.push(SpanRecord {
                id,
                parent,
                corr,
                source: source.into(),
                stage,
                detail,
                start: time,
                end: (!open).then_some(time),
            });
            if open {
                self.open.entry(corr).or_default().push(id);
            }
            id
        }

        fn end(&mut self, id: SpanId, time: SimTime) -> Option<SimDuration> {
            let first = self.spans.first()?.id.0;
            let idx = usize::try_from(id.0.checked_sub(first)?).ok()?;
            let record = self.spans.get_mut(idx).filter(|r| r.end.is_none())?;
            let end = time.max(record.start);
            record.end = Some(end);
            let (corr, start) = (record.corr, record.start);
            if let Some(stack) = self.open.get_mut(&corr) {
                if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                    stack.remove(pos);
                }
            }
            Some(end - start)
        }

        fn open_spans(&self) -> usize {
            self.open.values().map(Vec::len).sum()
        }
    }

    const SOURCES: [&str; 3] = ["rt0", "upnp-mapper", "rmi-mapper"];
    const STAGES: [&str; 4] = ["queue.wait", "transport.send", "deliver.local", "connect"];
    const PORTS: [&str; 2] = ["in", "out"];

    fn random_detail(rng: &mut SimRng) -> SpanDetail {
        match rng.gen_range(0u32..6) {
            0 => SpanDetail::EMPTY,
            1 => SpanDetail::from("port=in"),
            2 => SpanDetail::from(format!("text {}", rng.gen_range(0u64..1_000))),
            3 => SpanDetail::new(
                &["dst=rt", " port=", " wait=", " n=", ""],
                [
                    DetailArg::U64(rng.next_u64()),
                    DetailArg::Str(PORTS[rng.gen_range(0usize..2)]),
                    DetailArg::Dur(SimDuration::from_nanos(rng.gen_range(0u64..1_000_000))),
                    DetailArg::Text(format!("t{}", rng.gen_range(0u64..9)).into()),
                ],
            ),
            4 => SpanDetail::new(
                &["a=", " b=", ""],
                [
                    DetailArg::Text(format!("x{}", rng.gen_range(0u64..9)).into()),
                    DetailArg::Text("y".into()),
                ],
            ),
            _ => SpanDetail::new(&["bytes=", ""], [DetailArg::U64(rng.gen_range(0u64..1500))]),
        }
    }

    /// The ring and the reference journal agree after every step of a
    /// random schedule of begins, instant spans and ends (double ends,
    /// ends of evicted, unknown and `NONE` ids included), on every
    /// record, the open count, the overwrite count and every `end`.
    #[test]
    fn ring_matches_the_reference_journal() {
        check_cases("ring_matches_the_reference_journal", 64, |_, rng| {
            let capacity = rng.gen_range(2usize..=64);
            let mut ring = SpanJournal::new(capacity);
            let mut reference = ReferenceJournal::new(capacity);
            let corrs = [0u64, 7, 7 << 32, 0xbeef, 0xbeef << 32];
            let mut now = 0u64;
            for _ in 0..rng.gen_range(1usize..400) {
                now += rng.gen_range(0u64..1_000);
                let t = SimTime::from_nanos(now);
                let corr = corrs[rng.gen_range(0usize..corrs.len())];
                let name = SOURCES[rng.gen_range(0usize..SOURCES.len())];
                let stage = STAGES[rng.gen_range(0usize..STAGES.len())];
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let detail = random_detail(rng);
                        let source = ring.source(name);
                        let a = ring.record(corr, t, source, stage, detail.clone(), true);
                        let b = reference.record(corr, t, name, stage, detail, true);
                        assert_eq!(a, b);
                    }
                    4..=5 => {
                        let detail = random_detail(rng);
                        let source = ring.source(name);
                        let a = ring.record(corr, t, source, stage, detail.clone(), false);
                        let b = reference.record(corr, t, name, stage, detail, false);
                        assert_eq!(a, b);
                    }
                    _ => {
                        // Any id from NONE to a few past the newest.
                        let id = SpanId(rng.gen_range(0..reference.next + 3));
                        let back =
                            SimTime::from_nanos(now.saturating_sub(rng.gen_range(0u64..500)));
                        assert_eq!(ring.end(id, back), reference.end(id, back), "end {id}");
                    }
                }
                let records: Vec<SpanRecord> = ring.iter_from(0).collect();
                assert_eq!(records, reference.spans);
                assert_eq!(ring.len(), reference.spans.len());
                assert_eq!(ring.open_spans(), reference.open_spans());
                assert_eq!(ring.overwrites(), reference.overwrites);
                for s in &reference.spans {
                    assert_eq!(ring.get(s.id).as_ref(), Some(s));
                }
                let tail: Vec<SpanRecord> = ring.iter_from(reference.next / 2).collect();
                let expect: Vec<&SpanRecord> = reference
                    .spans
                    .iter()
                    .filter(|s| s.id.0 >= reference.next / 2)
                    .collect();
                assert_eq!(tail.iter().collect::<Vec<_>>(), expect);
                assert!(ring.slots.capacity() <= ring.capacity);
                assert!(ring.texts.iter().all(|&(id, _)| id >= ring.first));
            }
        });
    }

    #[test]
    fn slots_are_compact_and_own_nothing() {
        assert!(std::mem::size_of::<SpanSlot>() <= 96);
        assert!(!std::mem::needs_drop::<SpanSlot>());
    }

    #[test]
    fn sources_and_strings_resolve_once() {
        let mut j = SpanJournal::new(8);
        let a = j.source("rt0");
        assert_eq!(j.source("rt0"), a);
        assert_ne!(j.source("rt1"), a);
        assert_eq!(&**j.source_name(a), "rt0");
        for _ in 0..3 {
            j.record(
                1,
                SimTime::ZERO,
                a,
                "queue.wait",
                SpanDetail::from("x"),
                false,
            );
        }
        assert_eq!(j.strs.values.len(), 2, "one stage and one detail string");
        assert_eq!(j.pieces.values.len(), 1);
    }
}
