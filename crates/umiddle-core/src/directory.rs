//! The directory replica each runtime maintains.
//!
//! "The uMiddle directory module handles the exchange of device
//! advertisements among hosts" (paper §3.2). Each runtime keeps a full
//! replica of the federation's translator profiles, kept in sync by the
//! delta-gossip plane (see [`crate::replica`]). The replica serves
//! `lookup(Query)` locally and feeds directory listeners.

use std::cell::{Cell, OnceCell};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::hash::BuildHasherDefault;

use simnet::{Addr, IntHasher, IntMap, SimTime};

use crate::id::{RuntimeId, TranslatorId};
use crate::mime::MimeType;
use crate::profile::TranslatorProfile;
use crate::query::Query;
use crate::shape::{Direction, PortKind};

/// One replica entry: a profile plus liveness bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectoryEntry {
    /// The advertised profile.
    pub profile: TranslatorProfile,
    /// Transport address of the hosting runtime.
    pub home: Addr,
    /// When the entry expires unless refreshed ([`SimTime::MAX`] for
    /// entries whose liveness is tracked elsewhere — local entries, and
    /// remote entries under origin-level delta-gossip liveness).
    pub expires: SimTime,
    /// `true` if the translator is hosted by this runtime (local entries
    /// never expire).
    pub local: bool,
}

/// Effect of applying an advertisement to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertEffect {
    /// The translator was not known before.
    Appeared,
    /// The entry was refreshed (TTL extended, profile possibly updated).
    Refreshed,
}

/// Per direction, the translators advertising each kind of digital port.
#[derive(Debug, Default, PartialEq)]
struct PortIndex {
    /// Per direction, concrete mime → ids of profiles with such a port.
    /// Postings are removed when they empty.
    mime: [HashMap<MimeType, BTreeSet<TranslatorId>>; 2],
    /// Ids of profiles with a wildcard-typed digital port, per direction.
    patterns: [BTreeSet<TranslatorId>; 2],
}

impl PortIndex {
    /// The index that `entries` imply.
    fn of(entries: &IntMap<TranslatorId, DirectoryEntry>) -> PortIndex {
        let mut index = PortIndex::default();
        for (id, e) in entries {
            index.add(*id, &e.profile);
        }
        index
    }

    fn add(&mut self, id: TranslatorId, profile: &TranslatorProfile) {
        for port in profile.shape().ports() {
            if let PortKind::Digital(mime) = &port.kind {
                let d = slot(port.direction);
                if mime.is_pattern() {
                    self.patterns[d].insert(id);
                } else {
                    self.mime[d].entry(mime.clone()).or_default().insert(id);
                }
            }
        }
    }

    fn remove(&mut self, id: TranslatorId, profile: &TranslatorProfile) {
        for port in profile.shape().ports() {
            if let PortKind::Digital(mime) = &port.kind {
                let d = slot(port.direction);
                if mime.is_pattern() {
                    self.patterns[d].remove(&id);
                } else if let Some(ids) = self.mime[d].get_mut(mime) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.mime[d].remove(mime);
                    }
                }
            }
        }
    }
}

/// The in-memory directory replica.
///
/// Entries live in a hash map keyed by translator id, so a replica
/// write is one probe. Per direction, secondary indexes map each
/// concrete port MIME type to sorted translator ids (the hot
/// [`Query::HasPort`] shape of every dynamic binding attempt) and hold
/// the ids with a wildcard-typed port. Wildcard queries (`*/*`,
/// `image/*`) answer from the union of one direction's postings — never
/// the table, but O(p) in the p ids posted; origin walks filter the
/// whole table. Results and walks are in ascending id order (postings
/// are sorted, whole-table walks sort on demand), so the hash map's
/// iteration order never leaks out.
///
/// The secondary indexes are built by the first lookup they serve and
/// kept exact by every write after it. A replica that never serves such
/// a lookup (under E12 churn, every host but the clients') keeps no
/// postings, and a write there costs only the entry probe. Postings are
/// sorted sets and unions sort, so no result depends on when the
/// indexes were built.
///
/// Queries neither index can serve (name/attribute predicates, `Or`/`Not`
/// roots) fall back to the full scan and bump [`Self::scan_fallbacks`];
/// indexed candidates are re-checked with [`Query::matches`] — except
/// exact postings for a bare concrete-port query, which satisfy it by the
/// index invariant — so every path agrees with the scan.
#[derive(Debug, Default)]
pub struct DirectoryTable {
    entries: IntMap<TranslatorId, DirectoryEntry>,
    /// Built by the first index-served lookup, then kept exact.
    index: OnceCell<PortIndex>,
    /// Expiry dirty-set: `(expires, id)` min-heap of remote entries with
    /// a finite TTL, checked lazily against the live table (a refresh
    /// leaves a stale heap entry behind). Entries with `expires == MAX`
    /// (delta-gossip liveness) never enter the heap.
    expiry: BinaryHeap<Reverse<(SimTime, TranslatorId)>>,
    /// How many lookups fell back to the full scan (interior mutability:
    /// `lookup` takes `&self`). Pinned by the index regression tests.
    scan_fallbacks: Cell<u64>,
}

impl DirectoryTable {
    /// Creates an empty table.
    pub fn new() -> DirectoryTable {
        DirectoryTable::default()
    }

    /// Applies an advertisement.
    pub fn upsert(
        &mut self,
        profile: TranslatorProfile,
        home: Addr,
        expires: SimTime,
        local: bool,
    ) -> UpsertEffect {
        let id = profile.id();
        if !local && expires != SimTime::MAX {
            self.expiry.push(Reverse((expires, id)));
        }
        let entry = DirectoryEntry {
            profile,
            home,
            expires,
            local,
        };
        if self.entries.len() == self.entries.capacity() {
            self.rebuild_entries();
        }
        let index = self.index.get_mut();
        match self.entries.entry(id) {
            Entry::Occupied(mut slot) => {
                // A refresh may carry a changed shape; drop the stale
                // index entries before re-indexing.
                let old = slot.insert(entry);
                if let Some(index) = index {
                    index.remove(id, &old.profile);
                    index.add(id, &slot.get().profile);
                }
                UpsertEffect::Refreshed
            }
            Entry::Vacant(slot) => {
                let new = slot.insert(entry);
                if let Some(index) = index {
                    index.add(id, &new.profile);
                }
                UpsertEffect::Appeared
            }
        }
    }

    /// Moves the entries into a table sized for one more, before an
    /// insert that would find the table full.
    ///
    /// Under churn the capacity is used up by the tombstones of removed
    /// ids (each re-registration takes a fresh id), and the hash table
    /// doubles when they run out if live entries fill more than half of
    /// it: 1041 entries in 2048 buckets under the E12 churn, after about
    /// 8000 virtual seconds. A replica's memory would then depend on how
    /// long it had churned, not on how many entries it holds. The
    /// rebuild drops the tombstones; when live entries really fill the
    /// table it doubles it, as the hash table would.
    fn rebuild_entries(&mut self) {
        let fresh = IntMap::with_capacity_and_hasher(self.entries.len() + 1, Default::default());
        let old = std::mem::replace(&mut self.entries, fresh);
        self.entries.extend(old);
    }

    /// Removes an entry (an unregistration). Returns it if present.
    pub fn remove(&mut self, id: TranslatorId) -> Option<DirectoryEntry> {
        let entry = self.entries.remove(&id)?;
        if let Some(index) = self.index.get_mut() {
            index.remove(id, &entry.profile);
        }
        Some(entry)
    }

    /// Removes every entry originating at `origin`, appending the removed
    /// ids to `removed` in ascending order (origin-level liveness eviction
    /// in the delta-gossip plane).
    pub fn remove_origin(&mut self, origin: RuntimeId, removed: &mut Vec<TranslatorId>) {
        let from = removed.len();
        removed.extend(self.origin_entries(origin).map(|e| e.profile.id()));
        for &id in &removed[from..] {
            self.remove(id);
        }
    }

    /// Entries originating at `origin`, in ascending id order.
    pub fn origin_entries(&self, origin: RuntimeId) -> impl Iterator<Item = &DirectoryEntry> {
        self.ordered(move |id, _| id.runtime == origin)
    }

    /// The entries `keep` selects, in ascending id order.
    fn ordered(
        &self,
        keep: impl Fn(&TranslatorId, &DirectoryEntry) -> bool,
    ) -> impl Iterator<Item = &DirectoryEntry> {
        let mut rows: Vec<(&TranslatorId, &DirectoryEntry)> =
            self.entries.iter().filter(|(id, e)| keep(id, e)).collect();
        rows.sort_unstable_by_key(|(id, _)| **id);
        rows.into_iter().map(|(_, e)| e)
    }

    /// Drops remote entries whose TTL lapsed, appending the expired ids
    /// to `dead` (cleared first) in ascending id order. Only due heap
    /// entries are examined — `O(due log n)`, not a table scan; one whose
    /// row was refreshed or removed is discarded. The caller's buffer
    /// keeps a quiet tick allocation-free.
    pub fn expire_into(&mut self, now: SimTime, dead: &mut Vec<TranslatorId>) {
        dead.clear();
        while let Some(Reverse((at, id))) = self.expiry.peek().copied() {
            if at > now {
                break;
            }
            self.expiry.pop();
            if self
                .entries
                .get(&id)
                .is_some_and(|e| !e.local && e.expires <= now)
            {
                self.remove(id);
                dead.push(id);
            }
        }
        dead.sort_unstable();
    }

    /// Allocating convenience wrapper around [`Self::expire_into`].
    pub fn expire(&mut self, now: SimTime) -> Vec<TranslatorId> {
        let mut dead = Vec::new();
        self.expire_into(now, &mut dead);
        dead
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: TranslatorId) -> Option<&DirectoryEntry> {
        self.entries.get(&id)
    }

    /// Serves the paper's `lookup(Query)`: profiles matching the query,
    /// in ascending id order.
    pub fn lookup(&self, query: &Query) -> Vec<&TranslatorProfile> {
        // Same element layout, so this collect reuses the vector.
        self.lookup_entries(query)
            .into_iter()
            .map(|e| &e.profile)
            .collect()
    }

    /// The entries whose profiles match `query`, in ascending id order.
    /// When the query (or one conjunct of an `And` chain) demands a
    /// digital port, only the index's candidates are visited — the
    /// `(direction, mime)` posting plus wildcard-typed ports for concrete
    /// types, every posting of the direction for patterns — and checked
    /// against the full query, so the result equals a table scan. The
    /// first such lookup builds the indexes.
    pub(crate) fn lookup_entries(&self, query: &Query) -> Vec<&DirectoryEntry> {
        let Some((direction, mime)) = Self::index_plan(query) else {
            self.scan_fallbacks.set(self.scan_fallbacks.get() + 1);
            return self.ordered(|_, e| query.matches(&e.profile)).collect();
        };
        let index = self.index.get_or_init(|| PortIndex::of(&self.entries));
        let d = slot(direction);
        // Wildcard-typed ports match any query type.
        let patterns = &index.patterns[d];
        let Some(mime) = mime else {
            let mut found = self.entries_of(union(index.mime[d].values().chain([patterns])));
            found.retain(|e| query.matches(&e.profile));
            return found;
        };
        // When the whole query *is* the concrete port demand (the
        // federation hot path — every dynamic binding attempt), exact
        // postings satisfy it by the index invariant: the posting is
        // keyed on precisely the queried `(direction, mime)`. Skipping
        // the per-candidate re-check matters at scale — `Query::matches`
        // walks every port of the profile, turning O(results) into
        // O(results * ports-per-profile).
        let bare = matches!(query, Query::HasPort { .. });
        let exact = index.mime[d].get(mime);
        if bare && patterns.is_empty() {
            return self.entries_of(exact.into_iter().flatten().copied());
        }
        let mut found = self.entries_of(union(exact.into_iter().chain([patterns])));
        found.retain(|e| {
            (bare && exact.is_some_and(|s| s.contains(&e.profile.id())))
                || query.matches(&e.profile)
        });
        found
    }

    /// The entries of `ids`, in the order given.
    fn entries_of(&self, ids: impl IntoIterator<Item = TranslatorId>) -> Vec<&DirectoryEntry> {
        ids.into_iter()
            .filter_map(|id| self.entries.get(&id))
            .collect()
    }

    /// How many lookups have fallen back to the full table scan (queries
    /// no index can narrow: name/attribute predicates, `Or`/`Not` roots).
    pub fn scan_fallbacks(&self) -> u64 {
        self.scan_fallbacks.get()
    }

    /// Finds a digital-port demand the indexes can serve: its direction,
    /// and its concrete type (`None` for a wildcard pattern). The demand
    /// is the query itself, or any conjunct of a top-level `And` chain
    /// (whose candidates are a safe superset), a concrete one preferred
    /// as narrower. `Or`/`Not` roots cannot narrow the scan: `None`.
    fn index_plan(query: &Query) -> Option<(Direction, Option<&MimeType>)> {
        match query {
            Query::HasPort {
                direction,
                kind: PortKind::Digital(mime),
            } => Some((*direction, (!mime.is_pattern()).then_some(mime))),
            Query::And(a, b) => match (Self::index_plan(a), Self::index_plan(b)) {
                (Some(plan @ (_, Some(_))), _) | (_, Some(plan @ (_, Some(_)))) => Some(plan),
                (a, b) => a.or(b),
            },
            _ => None,
        }
    }

    /// Checks that built secondary indexes are exactly what the entries
    /// imply: every posting names a live entry with such a port, every
    /// such port is posted, no posting is empty, and the wildcard sets
    /// hold exactly the entries with a wildcard-typed port. Returns both
    /// indexes otherwise. Indexes no lookup has built yet pass in O(1).
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(index) = self.index.get() else {
            return Ok(());
        };
        let expected = PortIndex::of(&self.entries);
        if *index != expected {
            return Err(format!("index {index:?}, entries imply {expected:?}"));
        }
        Ok(())
    }

    /// A canonical FNV-1a digest of the replicated content: entry ids,
    /// profiles and home addresses, in id order. TTL bookkeeping
    /// (`expires`) and the observer-relative `local` flag are excluded,
    /// so two replicas that agree on the federation's state produce the
    /// same fingerprint regardless of which runtime computed it. The
    /// convergence battery and anti-entropy tests compare these.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in self.iter() {
            let id = e.profile.id();
            fnv_u64(&mut h, ((id.runtime.0 as u64) << 32) | id.local as u64);
            fnv_str(&mut h, e.profile.name());
            fnv_str(&mut h, e.profile.platform());
            fnv_u64(&mut h, e.profile.shape().ports().len() as u64);
            for port in e.profile.shape().ports() {
                fnv_str(&mut h, &port.name);
                fnv_u64(&mut h, port.direction as u64);
                match &port.kind {
                    PortKind::Digital(mime) => {
                        fnv_u64(&mut h, 0);
                        fnv_str(&mut h, mime.ty());
                        fnv_str(&mut h, mime.subtype());
                    }
                    PortKind::Physical { perception, media } => {
                        fnv_u64(&mut h, 1);
                        fnv_u64(&mut h, *perception as u64);
                        fnv_str(&mut h, media);
                    }
                }
            }
            let mut attrs = 0u64;
            for (k, v) in e.profile.attrs() {
                fnv_str(&mut h, k);
                fnv_str(&mut h, v);
                attrs += 1;
            }
            fnv_u64(&mut h, attrs);
            fnv_u64(&mut h, e.home.node.index() as u64);
            fnv_u64(&mut h, e.home.port as u64);
        }
        h
    }

    /// All entries, ordered by translator id.
    pub fn iter(&self) -> impl Iterator<Item = &DirectoryEntry> {
        self.ordered(|_, _| true)
    }

    /// Entries hosted by this runtime, ordered by translator id.
    pub fn local_entries(&self) -> impl Iterator<Item = &DirectoryEntry> {
        self.ordered(|_, e| e.local)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The ascending, duplicate-free union of posting sets. A hash set
/// drops the duplicates first (a profile is posted once per port type),
/// so only the distinct ids are sorted.
fn union<'a>(sets: impl Iterator<Item = &'a BTreeSet<TranslatorId>>) -> Vec<TranslatorId> {
    let distinct: HashSet<TranslatorId, BuildHasherDefault<IntHasher>> =
        sets.flatten().copied().collect();
    let mut ids: Vec<TranslatorId> = distinct.into_iter().collect();
    ids.sort_unstable();
    ids
}

/// The per-direction index slot of `direction`.
fn slot(direction: Direction) -> usize {
    match direction {
        Direction::Input => 0,
        Direction::Output => 1,
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_str(h: &mut u64, s: &str) {
    fnv_u64(h, s.len() as u64);
    for b in s.as_bytes() {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::RuntimeId;
    use simnet::NodeId;

    fn profile(local: u32, name: &str) -> TranslatorProfile {
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), local), name).build()
    }

    fn addr() -> Addr {
        Addr::new(NodeId::from_index(0), 47_001)
    }

    #[test]
    fn upsert_reports_appearance_then_refresh() {
        let mut t = DirectoryTable::new();
        let p = profile(1, "cam");
        assert_eq!(
            t.upsert(p.clone(), addr(), SimTime::from_secs(15), false),
            UpsertEffect::Appeared
        );
        assert_eq!(
            t.upsert(p, addr(), SimTime::from_secs(30), false),
            UpsertEffect::Refreshed
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn churn_does_not_grow_the_table() {
        // The E12 replica size: live entries stay at 1041 while every
        // re-registration takes a fresh id.
        const LIVE: u32 = 1041;
        let mut t = DirectoryTable::new();
        let mut live: Vec<u32> = (0..LIVE).collect();
        for local in &live {
            t.upsert(profile(*local, "svc"), addr(), SimTime::MAX, false);
        }
        let sized: IntMap<TranslatorId, DirectoryEntry> =
            IntMap::with_capacity_and_hasher(LIVE as usize + 1, Default::default());
        let mut rng: u64 = 1;
        for fresh in LIVE..LIVE + 200_000 {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let k = (rng >> 33) as usize % live.len();
            assert!(t.remove(TranslatorId::new(RuntimeId(0), live[k])).is_some());
            live[k] = fresh;
            t.upsert(profile(fresh, "svc"), addr(), SimTime::MAX, false);
            assert!(
                t.entries.capacity() <= sized.capacity(),
                "grew at id {fresh}"
            );
        }
        assert_eq!(t.len(), LIVE as usize);
        t.check_invariants().unwrap();
    }

    #[test]
    fn expiry_skips_local_entries() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "remote"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(2, "local"), addr(), SimTime::from_secs(10), true);
        let dead = t.expire(SimTime::from_secs(20));
        assert_eq!(dead, vec![TranslatorId::new(RuntimeId(0), 1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(TranslatorId::new(RuntimeId(0), 2)).is_some());
    }

    #[test]
    fn refresh_extends_ttl() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "x"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(1, "x"), addr(), SimTime::from_secs(25), false);
        assert!(t.expire(SimTime::from_secs(20)).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(25)).len(), 1);
    }

    #[test]
    fn expire_into_reuses_the_caller_buffer() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "a"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(2, "b"), addr(), SimTime::from_secs(40), false);
        let mut scratch = Vec::new();
        t.expire_into(SimTime::from_secs(20), &mut scratch);
        assert_eq!(scratch, vec![TranslatorId::new(RuntimeId(0), 1)]);
        // A quiet tick clears the buffer but keeps its capacity.
        let cap = scratch.capacity();
        t.expire_into(SimTime::from_secs(25), &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn max_ttl_entries_never_enter_the_expiry_heap() {
        let mut t = DirectoryTable::new();
        // Delta-gossip remotes carry MAX expiry (origin-level liveness);
        // the heap must stay empty so a million-entry table doesn't drag
        // a million dead weights through every tick.
        t.upsert(profile(1, "remote"), addr(), SimTime::MAX, false);
        assert!(t.expiry.is_empty());
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_filters() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "Camera"), addr(), SimTime::MAX, true);
        t.upsert(profile(2, "Printer"), addr(), SimTime::MAX, true);
        let q = Query::NameContains("cam".to_owned());
        let hits = t.lookup(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name(), "Camera");
        assert_eq!(t.lookup(&Query::All).len(), 2);
        assert!(t.lookup(&Query::None).is_empty());
    }

    fn shaped_profile(
        local: u32,
        name: &str,
        ports: &[(&str, Direction, &str)],
    ) -> TranslatorProfile {
        let mut b = crate::shape::Shape::builder();
        for (pname, dir, mime) in ports {
            b = b.digital(pname, *dir, mime.parse().expect("test mime"));
        }
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), local), name)
            .shape(b.build().expect("test shape"))
            .build()
    }

    /// A table mixing concrete, wildcard, and port-less profiles, for the
    /// index/scan agreement battery.
    fn mixed_table() -> DirectoryTable {
        let mut t = DirectoryTable::new();
        t.upsert(
            shaped_profile(
                1,
                "Camera",
                &[("image-out", Direction::Output, "image/jpeg")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        t.upsert(
            shaped_profile(
                2,
                "Printer",
                &[("image-in", Direction::Input, "image/jpeg")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        t.upsert(
            shaped_profile(3, "Display", &[("media-in", Direction::Input, "image/*")]),
            addr(),
            SimTime::MAX,
            false,
        );
        t.upsert(
            shaped_profile(
                4,
                "Recorder",
                &[
                    ("audio-in", Direction::Input, "audio/pcm"),
                    ("audio-out", Direction::Output, "audio/pcm"),
                ],
            ),
            addr(),
            SimTime::MAX,
            false,
        );
        t.upsert(profile(5, "Plain"), addr(), SimTime::MAX, false);
        t
    }

    /// Reference implementation: the pre-index full scan.
    fn scan<'a>(t: &'a DirectoryTable, q: &Query) -> Vec<&'a TranslatorProfile> {
        t.iter()
            .map(|e| &e.profile)
            .filter(|p| q.matches(p))
            .collect()
    }

    #[test]
    fn indexed_lookup_agrees_with_scan() {
        let t = mixed_table();
        let jpeg_in = Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().expect("mime")),
        );
        let queries = vec![
            Query::All,
            Query::None,
            jpeg_in.clone(),
            Query::has_port(
                Direction::Output,
                PortKind::Digital("image/jpeg".parse().expect("mime")),
            ),
            Query::has_port(
                Direction::Input,
                PortKind::Digital("audio/pcm".parse().expect("mime")),
            ),
            // Pattern queries: served from the union of the postings.
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/*".parse().expect("mime")),
            ),
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any())),
            Query::has_port(Direction::Output, PortKind::Digital(MimeType::any())),
            // Unknown type: indexed path returns only wildcard candidates.
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/png".parse().expect("mime")),
            ),
            // Conjunctions pick the indexable conjunct from either side.
            jpeg_in.clone().and(Query::NameContains("print".to_owned())),
            Query::NameContains("disp".to_owned()).and(jpeg_in.clone()),
            // A concrete conjunct beats a pattern conjunct.
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()))
                .and(jpeg_in.clone()),
            // Disjunction and negation stay on the scan path.
            jpeg_in.clone().or(Query::NameIs("Plain".to_owned())),
            jpeg_in.clone().not(),
        ];
        for q in &queries {
            assert_eq!(t.lookup(q), scan(&t, q), "index/scan disagree on {q:?}");
        }
    }

    #[test]
    fn port_queries_never_fall_back_to_the_scan() {
        let t = mixed_table();
        let port_queries = vec![
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/jpeg".parse().expect("mime")),
            ),
            // Double-wildcard and half-wildcard patterns: the postings
            // serve them without touching non-digital entries.
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any())),
            Query::has_port(Direction::Output, PortKind::Digital(MimeType::any())),
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/*".parse().expect("mime")),
            ),
            Query::has_port(
                Direction::Output,
                PortKind::Digital("*/pcm".parse().expect("mime")),
            ),
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()))
                .and(Query::NameContains("disp".to_owned())),
        ];
        for q in &port_queries {
            assert_eq!(t.lookup(q), scan(&t, q), "index/scan disagree on {q:?}");
        }
        assert_eq!(
            t.scan_fallbacks(),
            0,
            "digital port queries must be index-served"
        );
        // Non-port predicates legitimately scan.
        t.lookup(&Query::NameContains("cam".to_owned()));
        assert_eq!(t.scan_fallbacks(), 1);
    }

    #[test]
    fn index_follows_refresh_remove_and_expiry() {
        let mut t = mixed_table();
        let jpeg_in = Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().expect("mime")),
        );
        // Printer (concrete) + Display (wildcard) match.
        assert_eq!(t.lookup(&jpeg_in).len(), 2);

        // A refresh that changes the shape must re-index: the printer now
        // only takes PostScript.
        t.upsert(
            shaped_profile(
                2,
                "Printer",
                &[("ps-in", Direction::Input, "application/postscript")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));
        assert_eq!(t.lookup(&jpeg_in).len(), 1);

        // Explicit bye for the wildcard display.
        t.remove(TranslatorId::new(RuntimeId(0), 3));
        assert!(t.lookup(&jpeg_in).is_empty());
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));

        // Expiry deindexes too: re-add the display with a short TTL.
        t.upsert(
            shaped_profile(3, "Display", &[("media-in", Direction::Input, "image/*")]),
            addr(),
            SimTime::from_secs(5),
            false,
        );
        assert_eq!(t.lookup(&jpeg_in).len(), 1);
        t.expire(SimTime::from_secs(10));
        assert!(t.lookup(&jpeg_in).is_empty());
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));

        // The wildcard side list follows as well.
        let any_in = Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()));
        assert_eq!(t.lookup(&any_in), scan(&t, &any_in));
    }

    const MIMES: [&str; 6] = [
        "image/jpeg",
        "image/png",
        "audio/pcm",
        "image/*",
        "*/pcm",
        "*/*",
    ];

    /// One random write over twelve ids: a removal, or an upsert (an
    /// appearance or a refresh) of up to three random digital ports.
    fn churn_step(t: &mut DirectoryTable, rng: &mut simnet::SimRng) {
        let local = rng.gen_range(0u32..12);
        if rng.gen_bool(0.35) {
            t.remove(TranslatorId::new(RuntimeId(0), local));
            return;
        }
        let ports: Vec<(String, Direction, &str)> = (0..rng.gen_range(0usize..4))
            .map(|k| {
                let dir = if rng.gen_bool(0.5) {
                    Direction::Input
                } else {
                    Direction::Output
                };
                (format!("p{k}"), dir, MIMES[rng.gen_range(0..MIMES.len())])
            })
            .collect();
        let ports: Vec<(&str, Direction, &str)> =
            ports.iter().map(|(n, d, m)| (n.as_str(), *d, *m)).collect();
        let name = ["cam", "tv", "mic"][rng.gen_range(0usize..3)];
        t.upsert(
            shaped_profile(local, name, &ports),
            addr(),
            SimTime::MAX,
            false,
        );
    }

    /// Every index-served lookup shape, for a random direction and
    /// concrete type, each checked against the scan.
    fn lookups_agree_with_scan(t: &DirectoryTable, rng: &mut simnet::SimRng) {
        let dir = if rng.gen_bool(0.5) {
            Direction::Input
        } else {
            Direction::Output
        };
        let concrete = MIMES[rng.gen_range(0..3)].parse().expect("mime");
        let exact = Query::has_port(dir, PortKind::Digital(concrete));
        let queries = [
            exact.clone(),
            Query::has_port(dir, PortKind::Digital(MimeType::any())),
            Query::has_port(dir, PortKind::Digital("image/*".parse().expect("mime"))),
            exact.and(Query::NameContains("c".to_owned())),
        ];
        for q in &queries {
            assert_eq!(t.lookup(q), scan(t, q), "index/scan disagree on {q:?}");
        }
    }

    #[test]
    fn random_churn_keeps_the_index_exact() {
        simnet::check_cases("directory_random_churn", 48, |_, rng| {
            let mut t = DirectoryTable::new();
            for _ in 0..64 {
                churn_step(&mut t, rng);
                lookups_agree_with_scan(&t, rng);
                t.check_invariants().expect("index exact");
            }
            assert_eq!(t.scan_fallbacks(), 0);
        });
    }

    /// A replica that churns before its first lookup: writes alone build
    /// no index, the first lookup builds it over the churned table, and
    /// every write after that keeps it exact.
    #[test]
    fn index_built_mid_churn_stays_exact() {
        simnet::check_cases("directory_lazy_index", 48, |_, rng| {
            let mut t = DirectoryTable::new();
            for _ in 0..rng.gen_range(1usize..64) {
                churn_step(&mut t, rng);
                t.check_invariants().expect("an unbuilt index passes");
            }
            assert!(t.index.get().is_none(), "writes built the index");
            for _ in 0..64 {
                lookups_agree_with_scan(&t, rng);
                assert!(t.index.get().is_some(), "a port lookup builds the index");
                t.check_invariants().expect("index exact");
                churn_step(&mut t, rng);
                t.check_invariants().expect("index exact");
            }
        });
    }

    #[test]
    fn remove_origin_drops_exactly_that_origin() {
        let mut t = DirectoryTable::new();
        for (rt, local, name) in [(1, 0, "a"), (1, 7, "b"), (2, 0, "c"), (3, 1, "d")] {
            t.upsert(
                shaped_profile(local, name, &[("o", Direction::Output, "x/y")])
                    .with_id(TranslatorId::new(RuntimeId(rt), local)),
                addr(),
                SimTime::MAX,
                false,
            );
        }
        let mut gone = Vec::new();
        t.remove_origin(RuntimeId(1), &mut gone);
        assert_eq!(
            gone,
            vec![
                TranslatorId::new(RuntimeId(1), 0),
                TranslatorId::new(RuntimeId(1), 7)
            ]
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.origin_entries(RuntimeId(1)).count(), 0);
        assert_eq!(t.origin_entries(RuntimeId(2)).count(), 1);
        // The index dropped the removed origin's postings.
        let q = Query::has_port(
            Direction::Output,
            PortKind::Digital("x/y".parse().expect("mime")),
        );
        assert_eq!(t.lookup(&q), scan(&t, &q));
        assert_eq!(t.lookup(&q).len(), 2);
    }

    #[test]
    fn fingerprint_tracks_replicated_content_only() {
        let build = |local_flag: bool, ttl: SimTime| {
            let mut t = DirectoryTable::new();
            t.upsert(
                shaped_profile(1, "Cam", &[("o", Direction::Output, "image/jpeg")]),
                addr(),
                ttl,
                local_flag,
            );
            t.upsert(profile(2, "Plain"), addr(), ttl, false);
            t
        };
        // Observer-relative liveness bookkeeping must not change the
        // digest; content must.
        let a = build(true, SimTime::MAX);
        let b = build(false, SimTime::from_secs(15));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = build(true, SimTime::MAX);
        c.upsert(profile(3, "Extra"), addr(), SimTime::MAX, false);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = build(true, SimTime::MAX);
        d.remove(TranslatorId::new(RuntimeId(0), 2));
        d.upsert(profile(2, "Plain2"), addr(), SimTime::MAX, false);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn remove_returns_entry() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "x"), addr(), SimTime::MAX, false);
        let e = t.remove(TranslatorId::new(RuntimeId(0), 1)).unwrap();
        assert_eq!(e.profile.name(), "x");
        assert!(t.is_empty());
        assert!(t.remove(TranslatorId::new(RuntimeId(0), 1)).is_none());
    }
}
