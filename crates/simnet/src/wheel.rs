//! Hierarchical timer wheel: the event queue behind [`crate::World`].
//!
//! A discrete-event simulator spends most of its time inserting and
//! popping scheduled events. A single binary heap makes every operation
//! `O(log n)` in the *total* number of pending events — directory
//! re-announcements scheduled 30 virtual seconds out compete with
//! frame arrivals scheduled 40 µs out. The timer wheel splits the
//! timeline so the hot path only ever touches events that are about to
//! fire:
//!
//! * the **near window** holds events within the current 2^16 ns
//!   (~65 µs) window, in two parts: a **sorted run** of the keys the
//!   last cascade filed there (sorted once, consumed through a cursor)
//!   and a **near heap** of the keys pushed straight into the window
//!   since, late entries included;
//! * six **wheel levels** of 64 slots each cover bits `[16, 52)` of the
//!   event time; an event is filed at the level of the highest bit in
//!   which it differs from the wheel horizon, so each level spans 64×
//!   the range of the one below;
//! * an **overflow heap** catches events more than 2^52 ns (~52 days)
//!   ahead.
//!
//! Far events cost `O(1)` to insert and at most `LEVELS` cascade hops
//! over their whole lifetime. A cascade can file tens of thousands of
//! keys into the window at once (a discovery storm's interleaved
//! backlogs all re-filed for the same busy horizon); they are sorted as
//! one batch and popped in `O(1)` each, so only direct pushes pay
//! `O(log heap)`.
//!
//! # Determinism
//!
//! Pop order is **exactly** ascending `(time, seq)` — byte-identical to
//! the `BinaryHeap<Reverse<(time, seq)>>` it replaces (the
//! `wheel_matches_reference_heap` property test in `bench::timing`
//! enforces this). The argument:
//!
//! 1. Entries at level `l` share all bits above `base(l) + 6` with the
//!    horizon, so their slot index is strictly ahead of the horizon's
//!    cursor at that level; slots never wrap within an epoch.
//! 2. Every entry at level `l` is earlier than every entry at any
//!    higher level (it matches the horizon in the higher level's bit
//!    range, where the higher entry exceeds it), and later than
//!    everything in the near window; overflow entries are later still.
//! 3. Therefore the global minimum is always in the near window once
//!    [`TimerWheel::pop`] has cascaded (lowest level, lowest slot
//!    first), and ties on `time` are all in the near window together.
//! 4. The near window is the sorted run's unconsumed tail ∪ the near
//!    heap. A cascade happens only when both are empty, so the run is
//!    the exact set the cascade filed, sorted by `(time, seq)`; later
//!    pushes into the window go to the heap. The smaller of the two
//!    heads is therefore the window's minimum, and since `seq` is
//!    unique the comparison never ties: same-time entries from both
//!    parts interleave FIFO.
//!
//! The argument uses only the `(time, seq)` keys, never the order of the
//! pushes. So a sequence number reserved ahead of its push
//! ([`TimerWheel::reserve_seq`]) pops exactly where a push made at
//! reservation time would have, provided nothing that sorts after it
//! has been popped by the time it is pushed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Bits of event time covered by the near window (2^16 ns ≈ 65 µs).
const NEAR_BITS: u32 = 16;
/// Bits per wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of coarse levels above the near window.
const LEVELS: usize = 6;
/// First bit beyond the top level; times differing here go to overflow.
const TOP_BITS: u32 = NEAR_BITS + LEVELS as u32 * LEVEL_BITS;
/// Key capacity a drained bucket always keeps.
const BUCKET_KEEP: usize = 64;
/// Refills of the sorted run per capacity check. The run is refilled at
/// every cascade, and on `federation` bursts of thousands of keys come
/// between one-key refills, so checking each refill against the bucket
/// rule reallocated it over and over; it is checked against the largest
/// refill of each epoch instead.
const RUN_EPOCH: usize = 4096;
/// A drained bucket (or a refilled sorted run) whose capacity exceeds
/// this multiple of what its epoch filed is shrunk to twice that.
const BUCKET_SLACK: usize = 8;

/// A scheduled entry's ordering key plus its slab slot. Heap sifts, run
/// sorts and cascade hops move these 24-byte keys, never the payload — event
/// payloads are ~80 bytes in the simulator, and copying them through
/// every `O(log n)` sift dominated the scheduler's profile.
#[derive(Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic hierarchical timer wheel.
///
/// Entries are tagged with a monotonically increasing sequence number at
/// insertion; [`TimerWheel::pop`] yields entries in ascending
/// `(time, seq)` order, i.e. earliest first with FIFO tie-breaking —
/// the same contract as a min-heap on `(time, seq)`.
///
/// # Examples
///
/// ```
/// use simnet::wheel::TimerWheel;
/// use simnet::SimTime;
///
/// let mut wheel = TimerWheel::new();
/// wheel.push(SimTime::from_secs(30), "directory re-announce");
/// wheel.push(SimTime::from_micros(40), "frame arrival");
/// assert_eq!(wheel.pop(), Some((SimTime::from_micros(40), "frame arrival")));
/// assert_eq!(wheel.pop(), Some((SimTime::from_secs(30), "directory re-announce")));
/// assert_eq!(wheel.pop(), None);
/// ```
pub struct TimerWheel<T> {
    /// Lower bound on every stored entry's time; advances on pop.
    horizon: u64,
    /// Next insertion sequence number.
    seq: u64,
    /// Payload storage; heaps and wheel slots hold [`Key`]s into it.
    /// Grows to the peak pending count and is then recycled via `free`.
    slab: Vec<Option<T>>,
    /// Vacated slab slots awaiting reuse.
    free: Vec<u32>,
    /// Keys the last cascade filed into the near window, sorted by
    /// `(time, seq)`; `run[run_pos..]` are still pending.
    run: Vec<Key>,
    run_pos: usize,
    /// Refills of `run` in the current [`RUN_EPOCH`], and the largest.
    run_refills: usize,
    run_peak: usize,
    /// Keys pushed straight into the current near window.
    near: BinaryHeap<Reverse<Key>>,
    /// `LEVELS × SLOTS` buckets, flattened; capacity is retained across
    /// cascades (bounded by recent use, see [`BUCKET_SLACK`]) so
    /// steady-state operation does not allocate.
    levels: Vec<Vec<Key>>,
    /// Per-level bitmask of occupied slots (bit `s` = slot `s`).
    occupied: [u64; LEVELS],
    overflow: BinaryHeap<Reverse<Key>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> TimerWheel<T> {
        TimerWheel::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("horizon", &self.horizon)
            .field("len", &self.len)
            .field("run", &(self.run.len() - self.run_pos))
            .field("near", &self.near.len())
            .field("overflow", &self.overflow.len())
            .finish_non_exhaustive()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with the horizon at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            horizon: 0,
            seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
            run: Vec::new(),
            run_pos: 0,
            run_refills: 0,
            run_peak: 0,
            near: BinaryHeap::new(),
            levels: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `time`, assigning the next sequence number.
    ///
    /// Times earlier than the wheel horizon (already-popped virtual
    /// time) are filed into the near heap, which yields them on the next
    /// pop — the same behavior a plain min-heap would exhibit.
    pub fn push(&mut self, time: SimTime, item: T) {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, item);
    }

    /// Draws the next sequence number without pushing anything, exactly
    /// as [`TimerWheel::push`] would have drawn it. A caller that may
    /// never need the entry (a timer that is usually cancelled) reserves
    /// its place in the `(time, seq)` order now and pushes it later with
    /// [`TimerWheel::push_reserved`], or never; every other entry keeps
    /// the sequence number it would have had.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `item` at `time` under a sequence number drawn earlier
    /// by [`TimerWheel::reserve_seq`]. Pop order stays exact ascending
    /// `(time, seq)` provided no entry that sorts after `(time, seq)` has
    /// been popped yet (see the module docs). Each reserved number is
    /// pushed at most once.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, item: T) {
        debug_assert!(seq < self.seq, "sequence number was never reserved");
        self.len += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(item);
                s
            }
            None => {
                self.slab.push(Some(item));
                (self.slab.len() - 1) as u32
            }
        };
        let key = Key {
            time: time.as_nanos(),
            seq,
            slot,
        };
        if let Some(k) = self.file(key) {
            self.near.push(Reverse(k));
        }
    }

    /// Every pending entry, in no particular order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().flatten()
    }

    /// Reclaims a key's payload from the slab, recycling its slot.
    fn take(&mut self, key: Key) -> T {
        let item = self.slab[key.slot as usize]
            .take()
            .expect("key references a live slab slot");
        self.free.push(key.slot);
        item
    }

    /// The near window's earliest key: the smaller of the sorted run's
    /// head and the near heap's.
    fn near_first(&self) -> Option<Key> {
        let run = self.run.get(self.run_pos).copied();
        let heap = self.near.peek().map(|&Reverse(k)| k);
        match (run, heap) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (r, h) => r.or(h),
        }
    }

    /// Removes `k`, the key [`TimerWheel::near_first`] returned, from
    /// whichever part of the near window holds it.
    fn consume(&mut self, k: Key) {
        if self.run.get(self.run_pos) == Some(&k) {
            self.run_pos += 1;
        } else {
            self.near.pop();
        }
        self.len -= 1;
    }

    /// Removes and returns the earliest entry (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.ensure_near() {
            return None;
        }
        let k = self.near_first().expect("ensure_near filled the window");
        self.consume(k);
        self.horizon = self.horizon.max(k.time);
        Some((SimTime::from_nanos(k.time), self.take(k)))
    }

    /// Drains the entire run of entries sharing the earliest pending
    /// time into `out` (in sequence order) and returns that time.
    ///
    /// The run is the unit of the world's per-tick drain: it dispatches
    /// the run's entries in sequence order, so draining a whole run is
    /// observationally identical to popping one entry at a time.
    ///
    /// One cascade serves the whole run: same-time entries are always
    /// co-resident in the near window (they share every bit, so they
    /// file identically), so no wheel level is touched between pops.
    pub fn pop_run(&mut self, out: &mut impl Extend<T>) -> Option<SimTime> {
        let (time, item) = self.pop()?;
        out.extend(Some(item));
        while let Some(k) = self.near_first().filter(|k| k.time == time.as_nanos()) {
            self.consume(k);
            let item = self.take(k);
            out.extend(Some(item));
        }
        Some(time)
    }

    /// Time of the earliest pending entry, cascading lazily if needed.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ensure_near() {
            return None;
        }
        self.near_first().map(|k| SimTime::from_nanos(k.time))
    }

    /// The entry the next [`TimerWheel::pop`] returns, left in place.
    #[cfg(test)]
    pub(crate) fn peek(&mut self) -> Option<(SimTime, &T)> {
        if !self.ensure_near() {
            return None;
        }
        let k = self.near_first()?;
        let item = self.slab[k.slot as usize]
            .as_ref()
            .expect("key references a live slab slot");
        Some((SimTime::from_nanos(k.time), item))
    }

    /// Files a key relative to the current horizon into a wheel slot at
    /// the level of the highest differing bit, or into overflow; a key
    /// that belongs in the near window is handed back to the caller.
    fn file(&mut self, k: Key) -> Option<Key> {
        // A time at (or before) the horizon belongs in the near window.
        let t = k.time.max(self.horizon);
        let diff = t ^ self.horizon;
        if diff >> NEAR_BITS == 0 {
            return Some(k);
        }
        let top_bit = 63 - diff.leading_zeros();
        let level = ((top_bit - NEAR_BITS) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse(k));
            return None;
        }
        let base = NEAR_BITS + LEVEL_BITS * level as u32;
        let slot = ((t >> base) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.levels[level * SLOTS + slot].push(k);
        None
    }

    /// Files a cascaded key: into the sorted run if it lands in the
    /// near window, else into the wheel.
    fn refile(&mut self, k: Key) {
        if let Some(k) = self.file(k) {
            self.run.push(k);
        }
    }

    /// Refills the near window from the wheel once both its parts are
    /// empty, advancing the horizon to the next occupied bucket.
    /// Returns `false` when the wheel is completely empty.
    fn ensure_near(&mut self) -> bool {
        if self.run_pos < self.run.len() || !self.near.is_empty() {
            return true;
        }
        self.run.clear();
        self.run_pos = 0;
        // Cascading pushes nothing into the near heap, so the window is
        // empty until the run gets its first key.
        while self.run.is_empty() {
            if let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) {
                // Lowest occupied slot of the lowest occupied level is
                // the earliest bucket (slots never wrap within an
                // epoch; see module docs).
                let slot = self.occupied[level].trailing_zeros() as usize;
                let base = NEAR_BITS + LEVEL_BITS * level as u32;
                let above = base + LEVEL_BITS;
                let bucket = ((self.horizon >> above) << above) | ((slot as u64) << base);
                debug_assert!(bucket >= self.horizon, "cascade moved horizon backwards");
                self.horizon = bucket;
                self.occupied[level] &= !(1u64 << slot);
                let idx = level * SLOTS + slot;
                let mut keys = std::mem::take(&mut self.levels[idx]);
                let filed = keys.len();
                // Against the advanced horizon every entry differs only
                // below `base`, so it re-files strictly lower — at most
                // LEVELS hops per entry over its lifetime.
                for k in keys.drain(..) {
                    self.refile(k);
                }
                // Hand the (empty) buffer back so later epochs reuse its
                // capacity, but not capacity far above what this epoch
                // filed: one burst must not pin a slot's peak for the
                // rest of the run. The hysteresis keeps releases rare —
                // each follows growth that already reallocated.
                release_slack(&mut keys, filed);
                self.levels[idx] = keys;
            } else if let Some(Reverse(first)) = self.overflow.pop() {
                debug_assert!(first.time >= self.horizon);
                self.horizon = first.time;
                self.refile(first);
                // Pull every overflow entry that now shares the top
                // bits with the horizon into the wheel, so later pushes
                // can never slip ahead of them via the levels.
                while let Some(Reverse(k)) = self.overflow.peek() {
                    if (k.time ^ self.horizon) >> TOP_BITS != 0 {
                        break;
                    }
                    let Reverse(k) = self.overflow.pop().expect("peeked entry exists");
                    self.refile(k);
                }
            } else {
                return false;
            }
        }
        // `seq` is unique, so the unstable sort yields the one order.
        self.run.sort_unstable();
        // The run gives back burst capacity by the bucket rule, once per
        // epoch, against the epoch's largest refill.
        self.run_peak = self.run_peak.max(self.run.len());
        self.run_refills += 1;
        if self.run_refills == RUN_EPOCH {
            release_slack(&mut self.run, self.run_peak);
            self.run_refills = 0;
            self.run_peak = 0;
        }
        true
    }
}

/// Shrinks `keys` to twice `filed` (at least [`BUCKET_KEEP`]) when its
/// capacity exceeds [`BUCKET_SLACK`] times what its epoch filed.
fn release_slack(keys: &mut Vec<Key>, filed: usize) {
    if keys.capacity() > BUCKET_KEEP.max(filed * BUCKET_SLACK) {
        keys.shrink_to(BUCKET_KEEP.max(filed * 2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order_across_levels() {
        let mut wheel = TimerWheel::new();
        // One entry per storage tier: near, each level, overflow.
        let times: Vec<u64> = vec![
            3,                   // near
            1 << 17,             // level 0
            1 << 23,             // level 1
            1 << 29,             // level 2
            1 << 35,             // level 3
            1 << 41,             // level 4
            1 << 47,             // level 5
            1 << 60,             // overflow
            (1 << 60) + 500_000, // overflow, same epoch
        ];
        for (i, t) in times.iter().enumerate().rev() {
            wheel.push(SimTime::from_nanos(*t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = wheel.pop() {
            popped.push((t.as_nanos(), i));
        }
        let expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        assert_eq!(popped, expected);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_tick_entries_drain_as_one_run() {
        let mut wheel = TimerWheel::new();
        let t = SimTime::from_millis(5);
        for i in 0..4 {
            wheel.push(t, i);
        }
        wheel.push(SimTime::from_millis(6), 99);
        let mut run = Vec::new();
        assert_eq!(wheel.pop_run(&mut run), Some(t));
        assert_eq!(run, vec![0, 1, 2, 3]);
        run.clear();
        assert_eq!(wheel.pop_run(&mut run), Some(SimTime::from_millis(6)));
        assert_eq!(run, vec![99]);
        assert_eq!(wheel.pop_run(&mut run), None);
    }

    #[test]
    fn drained_buckets_release_burst_capacity() {
        let mut wheel = TimerWheel::new();
        // A burst into one level-0 slot grows that bucket to its size.
        let t = 1u64 << 17;
        for i in 0..10_000u64 {
            wheel.push(SimTime::from_nanos(t), i);
        }
        while wheel.pop().is_some() {}
        let peak = wheel.levels.iter().map(Vec::capacity).max().unwrap_or(0);
        assert!(peak >= 10_000);
        // Light traffic through every slot afterwards: each bucket is
        // drained again with one key and gives the burst capacity back.
        let mut now = t;
        for i in 0..200u64 {
            now += 1 << NEAR_BITS;
            wheel.push(SimTime::from_nanos(now), i);
            assert_eq!(wheel.pop(), Some((SimTime::from_nanos(now), i)));
        }
        let kept = wheel.levels.iter().map(Vec::capacity).max().unwrap_or(0);
        assert!(kept <= BUCKET_KEEP, "a bucket kept {kept} keys of capacity");
    }

    #[test]
    fn sorted_run_releases_burst_capacity() {
        let mut wheel = TimerWheel::new();
        // A burst filed past the near window reaches it by cascade, as
        // one sorted run.
        let t = 1u64 << 17;
        for i in 0..10_000u64 {
            wheel.push(SimTime::from_nanos(t), i);
        }
        assert_eq!(wheel.peek_time(), Some(SimTime::from_nanos(t)));
        assert_eq!(wheel.run.len(), 10_000);
        assert!(wheel.near.is_empty());
        while wheel.pop().is_some() {}
        assert!(wheel.run.capacity() >= 10_000);
        // One-key cascades: the burst's epoch keeps its capacity, and
        // the next epoch, which filed one key at a time, gives it back.
        let mut now = t;
        for i in 1..2 * RUN_EPOCH as u64 {
            now += 1 << NEAR_BITS;
            wheel.push(SimTime::from_nanos(now), i);
            assert_eq!(wheel.pop(), Some((SimTime::from_nanos(now), i)));
            if i + 1 < 2 * RUN_EPOCH as u64 {
                assert!(wheel.run.capacity() >= 10_000);
            }
        }
        let kept = wheel.run.capacity();
        assert!(kept <= BUCKET_KEEP, "the run kept {kept} keys of capacity");
    }

    #[test]
    fn cascaded_run_and_direct_pushes_interleave_by_seq() {
        let mut wheel = TimerWheel::new();
        let t = SimTime::from_nanos(1 << 17);
        wheel.push(t, "cascaded 0");
        wheel.push(SimTime::from_nanos((1 << 17) + 5), "cascaded later");
        wheel.push(t, "cascaded 1");
        assert_eq!(wheel.pop(), Some((t, "cascaded 0")));
        // Same instant, pushed after the cascade: it goes to the near
        // heap and pops after the run's older entry at `t`.
        wheel.push(t, "direct");
        wheel.push(SimTime::from_nanos((1 << 17) + 1), "direct later");
        let mut run = Vec::new();
        assert_eq!(wheel.pop_run(&mut run), Some(t));
        assert_eq!(run, ["cascaded 1", "direct"]);
        assert_eq!(
            wheel.pop(),
            Some((SimTime::from_nanos((1 << 17) + 1), "direct later"))
        );
        assert_eq!(
            wheel.pop(),
            Some((SimTime::from_nanos((1 << 17) + 5), "cascaded later"))
        );
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_secs(1), "far");
        wheel.push(SimTime::from_nanos(10), "soon");
        assert_eq!(wheel.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(wheel.peek(), Some((SimTime::from_nanos(10), &"soon")));
        assert_eq!(wheel.pop(), Some((SimTime::from_nanos(10), "soon")));
        assert_eq!(wheel.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(1), "far")));
        assert_eq!(wheel.peek_time(), None);
    }

    #[test]
    fn reserved_entries_pop_at_their_reserved_place() {
        let mut wheel = TimerWheel::new();
        let t = SimTime::from_millis(100);
        let early = wheel.reserve_seq();
        let _never_pushed = wheel.reserve_seq();
        wheel.push(t, "pushed after the reservation");
        wheel.push(SimTime::from_millis(50), "before");
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(50), "before")));
        // Pushed last, but its reserved number sorts it first at `t`.
        wheel.push_reserved(t, early, "reserved first");
        assert_eq!(wheel.len(), 2);
        let mut pending: Vec<&str> = wheel.iter().copied().collect();
        pending.sort_unstable();
        assert_eq!(pending, ["pushed after the reservation", "reserved first"]);
        assert_eq!(wheel.pop(), Some((t, "reserved first")));
        assert_eq!(wheel.pop(), Some((t, "pushed after the reservation")));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn entries_behind_the_horizon_pop_next() {
        let mut wheel = TimerWheel::new();
        wheel.push(SimTime::from_secs(2), "a");
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(2), "a")));
        // The horizon is now at 2 s; a stale push must still surface.
        wheel.push(SimTime::from_secs(1), "late");
        wheel.push(SimTime::from_secs(3), "b");
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(1), "late")));
        assert_eq!(wheel.pop(), Some((SimTime::from_secs(3), "b")));
    }
}
