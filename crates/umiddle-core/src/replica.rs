//! Version-vectored delta-gossip replication of the federation directory.
//!
//! Each runtime's directory replica tracks, per origin runtime, the
//! highest delta version it has applied. Origins publish every mutation
//! of their advertised set as a versioned [`DeltaOp`] (version numbers
//! are dense: the first op is version 1), so a replica can tell exactly
//! what it has and hasn't seen:
//!
//! * a delta that continues the applied prefix is applied in order;
//! * a duplicate or stale delta is ignored;
//! * a delta that leaves a gap is *dropped* and the replica asks the
//!   origin for precisely the missing range (anti-entropy repair);
//! * low-frequency digests — an origin's own `(id, version)` watermark —
//!   let replicas that missed everything (partition, late join) detect
//!   the divergence without any table exchange.
//!
//! Origins serve repair requests from a bounded in-memory log of their
//! own ops; when the requested range has been compacted away they fall
//! back to a full per-origin snapshot, which the receiver applies as a
//! diff against its current view. Either way the replica converges to
//! the same table — and the same lookup index — as a full-state
//! bootstrap, byte for byte; the `check_cases` battery at the bottom of
//! this module pins that under random interleaving, reordering,
//! duplication and loss.
//!
//! Everything here is pure state-machine logic: no timers, no sockets.
//! [`crate::runtime`] owns scheduling (when to digest, when to back off
//! a repair request) and the wire; tests drive this type directly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use simnet::{Addr, SimDuration, SimTime};

use crate::api::DirectoryEvent;
use crate::directory::{DirectoryTable, UpsertEffect};
use crate::id::{RuntimeId, TranslatorId};
use crate::profile::TranslatorProfile;
use crate::wire::DeltaOp;

/// Replication state for one remote origin.
#[derive(Debug, Clone, Copy)]
struct OriginState {
    /// Highest delta version applied from this origin.
    applied: u64,
    /// Last time anything (delta, digest, snapshot) arrived from it —
    /// the origin-level liveness watermark that replaces per-entry TTLs.
    last_heard: SimTime,
    /// When a repair request was last issued, for backoff deduplication.
    requested_at: Option<SimTime>,
}

impl OriginState {
    /// A just-heard origin with nothing applied yet.
    fn heard_at(now: SimTime) -> OriginState {
        OriginState {
            applied: 0,
            last_heard: now,
            requested_at: None,
        }
    }
}

/// Applies one op to `table`, appending the visible change to `events`.
fn apply_op(
    table: &mut DirectoryTable,
    op: &DeltaOp,
    home: Addr,
    events: &mut Vec<DirectoryEvent>,
) {
    match op {
        DeltaOp::Add(profile) => {
            if table.upsert(profile.clone(), home, SimTime::MAX, false) == UpsertEffect::Appeared {
                events.push(DirectoryEvent::Appeared(profile.clone()));
            }
        }
        DeltaOp::Remove(id) => {
            if table.remove(*id).is_some() {
                events.push(DirectoryEvent::Disappeared(*id));
            }
        }
    }
}

/// Result of offering a delta to the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// This many ops were newly applied (0 = pure duplicate).
    Applied(u64),
    /// The delta starts beyond the applied prefix; it was dropped and
    /// the caller should request the origin's deltas from `from`.
    Gap {
        /// First missing version.
        from: u64,
    },
    /// Own echo or empty delta; nothing to do.
    Ignored,
}

/// What an origin replies to a repair request with.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// The own-op log still covers the range: replay it.
    Ops {
        /// Version of the first op.
        first: u64,
        /// The ops, in version order (empty if the requester is already
        /// ahead of this origin).
        ops: Vec<DeltaOp>,
    },
    /// The range was compacted out of the log: full current state.
    Snapshot {
        /// The origin's version as of this snapshot.
        version: u64,
        /// Every profile the origin currently advertises.
        profiles: Vec<TranslatorProfile>,
    },
}

/// A runtime's directory replica plus the delta-gossip version state
/// driving its convergence.
#[derive(Debug)]
pub struct DirectoryReplica {
    me: RuntimeId,
    table: DirectoryTable,
    /// This runtime's own monotonic version; the first local mutation is
    /// version 1.
    own_version: u64,
    /// Bounded log of own ops, kept to serve anti-entropy requests
    /// without a snapshot.
    own_log: VecDeque<(u64, DeltaOp)>,
    log_cap: usize,
    /// Per-remote-origin state, ordered so every iteration (eviction,
    /// version vectors) is deterministic.
    origins: BTreeMap<RuntimeId, OriginState>,
}

impl DirectoryReplica {
    /// Creates an empty replica for runtime `me`, retaining up to
    /// `log_cap` of its own ops for repair service.
    pub fn new(me: RuntimeId, log_cap: usize) -> DirectoryReplica {
        DirectoryReplica {
            me,
            table: DirectoryTable::new(),
            own_version: 0,
            own_log: VecDeque::new(),
            log_cap,
            origins: BTreeMap::new(),
        }
    }

    /// The replicated table (lookups, iteration).
    pub fn table(&self) -> &DirectoryTable {
        &self.table
    }

    /// This runtime's own version (number of local mutations recorded).
    pub fn own_version(&self) -> u64 {
        self.own_version
    }

    /// Checks the table (see [`DirectoryTable::check_invariants`]) and
    /// the own-op log against the watermark: the log ends at
    /// `own_version`, holds consecutive versions, and keeps
    /// `min(own_version, log_cap)` ops. The log checks are O(1). Returns
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        let len = self.own_log.len() as u64;
        let want = self.own_version.min(self.log_cap as u64);
        if len != want {
            return Err(format!(
                "own log keeps {len} ops at version {} with cap {}, want {want}",
                self.own_version, self.log_cap
            ));
        }
        if let (Some(&(first, _)), Some(&(last, _))) = (self.own_log.front(), self.own_log.back()) {
            if last != self.own_version {
                return Err(format!(
                    "own log ends at {last}, watermark is {}",
                    self.own_version
                ));
            }
            if last - first + 1 != len {
                return Err(format!("own log spans {first}..={last} in {len} ops"));
            }
        }
        Ok(())
    }

    /// Highest version applied from `origin` (0 if never heard).
    pub fn applied(&self, origin: RuntimeId) -> u64 {
        self.origins.get(&origin).map_or(0, |st| st.applied)
    }

    fn log_own(&mut self, op: DeltaOp) -> u64 {
        self.own_version += 1;
        self.own_log.push_back((self.own_version, op));
        while self.own_log.len() > self.log_cap {
            self.own_log.pop_front();
        }
        self.own_version
    }

    /// Records a local registration (or profile update): upserts the
    /// table and appends to the own log. Returns the op's version; the
    /// caller gossips a delta carrying exactly this op.
    pub fn record_local_add(&mut self, profile: TranslatorProfile, home: Addr) -> u64 {
        self.table.upsert(profile.clone(), home, SimTime::MAX, true);
        self.log_own(DeltaOp::Add(profile))
    }

    /// Records a local unregistration. Returns the op's version, or
    /// `None` if the translator wasn't in the table.
    pub fn record_local_remove(&mut self, id: TranslatorId) -> Option<u64> {
        self.table.remove(id)?;
        Some(self.log_own(DeltaOp::Remove(id)))
    }

    /// Offers a delta from `origin`. Appeared/Disappeared events for
    /// newly applied ops are appended to `events`.
    pub fn apply_delta(
        &mut self,
        origin: RuntimeId,
        home: Addr,
        first: u64,
        ops: &[DeltaOp],
        now: SimTime,
        events: &mut Vec<DirectoryEvent>,
    ) -> DeltaOutcome {
        if origin == self.me {
            return DeltaOutcome::Ignored;
        }
        // One probe serves the whole delta: the table is a disjoint field,
        // so ops apply while the origin's state stays borrowed.
        let st = self
            .origins
            .entry(origin)
            .or_insert(OriginState::heard_at(now));
        st.last_heard = now;
        if ops.is_empty() {
            return DeltaOutcome::Ignored;
        }
        if first > st.applied + 1 {
            return DeltaOutcome::Gap {
                from: st.applied + 1,
            };
        }
        let mut fresh = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let v = first + i as u64;
            if v <= st.applied {
                continue; // already have it (overlapping replay)
            }
            apply_op(&mut self.table, op, home, events);
            st.applied = v;
            fresh += 1;
        }
        if fresh > 0 {
            st.requested_at = None;
        }
        DeltaOutcome::Applied(fresh)
    }

    /// Observes an anti-entropy digest from `origin`. Returns the first
    /// missing version if the digest reveals a gap *and* no repair
    /// request is outstanding within `backoff` (in which case the
    /// request is recorded as sent); `None` when in sync or backed off.
    pub fn observe_digest(
        &mut self,
        origin: RuntimeId,
        vector: &[(RuntimeId, u64)],
        now: SimTime,
        backoff: SimDuration,
    ) -> Option<u64> {
        if origin == self.me {
            return None;
        }
        let advertised = vector.iter().find(|(rt, _)| *rt == origin).map(|(_, v)| *v);
        let st = self.origin_mut(origin, now);
        st.last_heard = now;
        let advertised = advertised?;
        if advertised <= st.applied {
            return None;
        }
        if let Some(at) = st.requested_at {
            if at + backoff > now {
                return None; // a repair is already in flight
            }
        }
        st.requested_at = Some(now);
        Some(st.applied + 1)
    }

    /// Notes that a repair request for `origin` went out at `now`
    /// (backoff bookkeeping for gaps detected via [`Self::apply_delta`]).
    /// Returns `false` if one is already outstanding within `backoff`.
    pub fn note_request(&mut self, origin: RuntimeId, now: SimTime, backoff: SimDuration) -> bool {
        let st = self.origin_mut(origin, now);
        if let Some(at) = st.requested_at {
            if at + backoff > now {
                return false;
            }
        }
        st.requested_at = Some(now);
        true
    }

    fn origin_mut(&mut self, origin: RuntimeId, now: SimTime) -> &mut OriginState {
        self.origins
            .entry(origin)
            .or_insert(OriginState::heard_at(now))
    }

    /// Serves a repair request against the own log: replayed ops while
    /// the log covers `from`, a full snapshot once it was compacted.
    pub fn serve_request(&self, from: u64) -> ServeReply {
        if from > self.own_version {
            // Requester is already ahead (or we restarted); nothing to
            // send, and an empty ops run is harmless to apply.
            return ServeReply::Ops {
                first: from,
                ops: Vec::new(),
            };
        }
        match self.own_log.front() {
            Some((v0, _)) if *v0 <= from => ServeReply::Ops {
                first: from,
                ops: self
                    .own_log
                    .iter()
                    .filter(|(v, _)| *v >= from)
                    .map(|(_, op)| op.clone())
                    .collect(),
            },
            _ => ServeReply::Snapshot {
                version: self.own_version,
                profiles: self
                    .table
                    .local_entries()
                    .map(|e| e.profile.clone())
                    .collect(),
            },
        }
    }

    /// Replaces the view of `origin` with a full snapshot at `version`,
    /// applied as a diff: entries absent from the snapshot disappear,
    /// the rest are upserted. Returns the number of visible changes.
    pub fn apply_snapshot(
        &mut self,
        origin: RuntimeId,
        home: Addr,
        version: u64,
        profiles: &[TranslatorProfile],
        now: SimTime,
        events: &mut Vec<DirectoryEvent>,
    ) -> u64 {
        if origin == self.me {
            return 0;
        }
        let stale = {
            let st = self.origin_mut(origin, now);
            st.last_heard = now;
            let stale = version <= st.applied;
            if !stale {
                st.applied = version;
                st.requested_at = None;
            }
            stale
        };
        if stale {
            return 0;
        }
        let keep: BTreeSet<TranslatorId> = profiles.iter().map(|p| p.id()).collect();
        let existing: Vec<TranslatorId> = self
            .table
            .origin_entries(origin)
            .map(|e| e.profile.id())
            .collect();
        let mut changes = 0u64;
        for id in existing {
            if !keep.contains(&id) && self.table.remove(id).is_some() {
                events.push(DirectoryEvent::Disappeared(id));
                changes += 1;
            }
        }
        for p in profiles {
            let effect = self.table.upsert(p.clone(), home, SimTime::MAX, false);
            if effect == UpsertEffect::Appeared {
                events.push(DirectoryEvent::Appeared(p.clone()));
                changes += 1;
            }
        }
        changes
    }

    /// Evicts every origin not heard from within `ttl`: all its entries
    /// leave the table (Disappeared events, ids appended to `removed` in
    /// origin-then-id order) and its version state is forgotten, so a
    /// returning origin is re-synced from scratch. Returns the evicted
    /// origins in ascending id order.
    pub fn evict_stale_origins(
        &mut self,
        now: SimTime,
        ttl: SimDuration,
        events: &mut Vec<DirectoryEvent>,
        removed: &mut Vec<TranslatorId>,
    ) -> Vec<RuntimeId> {
        removed.clear();
        let stale: Vec<RuntimeId> = self
            .origins
            .iter()
            .filter(|(_, st)| st.last_heard + ttl <= now)
            .map(|(rt, _)| *rt)
            .collect();
        for &origin in &stale {
            self.origins.remove(&origin);
            let from = removed.len();
            self.table.remove_origin(origin, removed);
            for id in &removed[from..] {
                events.push(DirectoryEvent::Disappeared(*id));
            }
        }
        stale
    }

    /// The full version vector: own watermark first, then every known
    /// remote origin in ascending id order.
    pub fn version_vector(&self) -> Vec<(RuntimeId, u64)> {
        let mut v = Vec::with_capacity(1 + self.origins.len());
        v.push((self.me, self.own_version));
        v.extend(self.origins.iter().map(|(rt, st)| (*rt, st.applied)));
        v
    }

    /// Canonical digest of the replicated content (see
    /// [`DirectoryTable::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.table.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::shape::{Direction, PortKind, Shape};
    use simnet::NodeId;

    fn home(rt: u32) -> Addr {
        Addr::new(NodeId::from_index(rt as usize), 47_001)
    }

    fn t0() -> SimTime {
        SimTime::from_secs(1)
    }

    fn no_backoff() -> SimDuration {
        SimDuration::from_secs(0)
    }

    fn profile(rt: u32, local: u32, name: &str, mime: &str) -> TranslatorProfile {
        let shape = Shape::builder()
            .digital("o", Direction::Output, mime.parse().expect("mime"))
            .build()
            .expect("shape");
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(rt), local), name)
            .shape(shape)
            .build()
    }

    /// Publishes `n` adds on an origin replica, returning the deltas as
    /// `(first, op)` units.
    fn publish(origin: &mut DirectoryReplica, rt: u32, n: u32) -> Vec<(u64, DeltaOp)> {
        (0..n)
            .map(|i| {
                let p = profile(rt, i, &format!("svc-{i}"), "image/jpeg");
                let v = origin.record_local_add(p.clone(), home(rt));
                (v, DeltaOp::Add(p))
            })
            .collect()
    }

    #[test]
    fn in_order_deltas_apply_and_duplicates_are_ignored() {
        let mut origin = DirectoryReplica::new(RuntimeId(1), 64);
        let deltas = publish(&mut origin, 1, 3);
        let mut obs = DirectoryReplica::new(RuntimeId(9), 64);
        let mut events = Vec::new();
        for (v, op) in &deltas {
            let out = obs.apply_delta(
                RuntimeId(1),
                home(1),
                *v,
                std::slice::from_ref(op),
                t0(),
                &mut events,
            );
            assert_eq!(out, DeltaOutcome::Applied(1));
        }
        assert_eq!(events.len(), 3);
        assert_eq!(obs.applied(RuntimeId(1)), 3);
        assert_eq!(obs.fingerprint(), origin.fingerprint());
        // Replay of an old delta: no-op.
        let (v, op) = &deltas[1];
        let out = obs.apply_delta(
            RuntimeId(1),
            home(1),
            *v,
            std::slice::from_ref(op),
            t0(),
            &mut events,
        );
        assert_eq!(out, DeltaOutcome::Applied(0));
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn gap_drops_the_delta_and_requests_the_missing_range() {
        let mut origin = DirectoryReplica::new(RuntimeId(1), 64);
        let deltas = publish(&mut origin, 1, 3);
        let mut obs = DirectoryReplica::new(RuntimeId(9), 64);
        let mut events = Vec::new();
        // Versions 1 and 2 are lost; version 3 arrives first.
        let (v, op) = &deltas[2];
        let out = obs.apply_delta(
            RuntimeId(1),
            home(1),
            *v,
            std::slice::from_ref(op),
            t0(),
            &mut events,
        );
        assert_eq!(out, DeltaOutcome::Gap { from: 1 });
        assert!(events.is_empty());
        assert_eq!(obs.table().len(), 0, "gapped delta must not be applied");
        // The origin serves the whole range from its log…
        let ServeReply::Ops { first, ops } = origin.serve_request(1) else {
            panic!("log covers version 1");
        };
        assert_eq!((first, ops.len()), (1, 3));
        // …and applying it converges the observer.
        let out = obs.apply_delta(RuntimeId(1), home(1), first, &ops, t0(), &mut events);
        assert_eq!(out, DeltaOutcome::Applied(3));
        assert_eq!(obs.fingerprint(), origin.fingerprint());
    }

    #[test]
    fn digest_detects_divergence_and_backoff_dedups_requests() {
        let mut origin = DirectoryReplica::new(RuntimeId(1), 64);
        publish(&mut origin, 1, 2);
        let mut obs = DirectoryReplica::new(RuntimeId(9), 64);
        let vector = vec![(RuntimeId(1), origin.own_version())];
        let backoff = SimDuration::from_secs(5);
        assert_eq!(
            obs.observe_digest(RuntimeId(1), &vector, t0(), backoff),
            Some(1)
        );
        // Same tick, request outstanding: suppressed.
        assert_eq!(
            obs.observe_digest(RuntimeId(1), &vector, t0(), backoff),
            None
        );
        // After the backoff lapses it retries.
        let later = t0() + backoff;
        assert_eq!(
            obs.observe_digest(RuntimeId(1), &vector, later, backoff),
            Some(1)
        );
        // An in-sync replica never requests.
        let ServeReply::Ops { first, ops } = origin.serve_request(1) else {
            panic!("log covers version 1");
        };
        let mut events = Vec::new();
        obs.apply_delta(RuntimeId(1), home(1), first, &ops, later, &mut events);
        assert_eq!(
            obs.observe_digest(RuntimeId(1), &vector, later, backoff),
            None
        );
    }

    #[test]
    fn compacted_log_serves_a_snapshot_and_the_diff_converges() {
        // Cap 2: versions 1..=3 of 5 are compacted away.
        let mut origin = DirectoryReplica::new(RuntimeId(1), 2);
        publish(&mut origin, 1, 4);
        origin.record_local_remove(TranslatorId::new(RuntimeId(1), 0));
        assert_eq!(origin.own_version(), 5);

        // The observer saw the first two adds, then a partition.
        let mut obs = DirectoryReplica::new(RuntimeId(9), 64);
        let mut events = Vec::new();
        for i in 0..2u32 {
            let p = profile(1, i, &format!("svc-{i}"), "image/jpeg");
            obs.apply_delta(
                RuntimeId(1),
                home(1),
                u64::from(i) + 1,
                &[DeltaOp::Add(p)],
                t0(),
                &mut events,
            );
        }
        let from = obs
            .observe_digest(
                RuntimeId(1),
                &[(RuntimeId(1), origin.own_version())],
                t0(),
                no_backoff(),
            )
            .expect("diverged");
        assert_eq!(from, 3);
        let ServeReply::Snapshot { version, profiles } = origin.serve_request(from) else {
            panic!("range compacted, must snapshot");
        };
        assert_eq!(version, 5);
        events.clear();
        obs.apply_snapshot(RuntimeId(1), home(1), version, &profiles, t0(), &mut events);
        assert_eq!(obs.fingerprint(), origin.fingerprint());
        // svc-0 was added then removed at the origin; the diff must
        // retract it from the observer too.
        assert!(events
            .iter()
            .any(|e| *e == DirectoryEvent::Disappeared(TranslatorId::new(RuntimeId(1), 0))));
        assert_eq!(obs.applied(RuntimeId(1)), 5);
    }

    #[test]
    fn stale_origins_are_evicted_with_their_entries() {
        let mut origin = DirectoryReplica::new(RuntimeId(1), 64);
        let deltas = publish(&mut origin, 1, 2);
        let mut obs = DirectoryReplica::new(RuntimeId(9), 64);
        let mut events = Vec::new();
        for (v, op) in &deltas {
            obs.apply_delta(
                RuntimeId(1),
                home(1),
                *v,
                std::slice::from_ref(op),
                t0(),
                &mut events,
            );
        }
        events.clear();
        let ttl = SimDuration::from_secs(15);
        let mut removed = Vec::new();
        // Heard recently: kept.
        obs.evict_stale_origins(
            t0() + SimDuration::from_secs(10),
            ttl,
            &mut events,
            &mut removed,
        );
        assert!(removed.is_empty());
        assert_eq!(obs.table().len(), 2);
        // Silent past the TTL: the whole origin goes.
        obs.evict_stale_origins(t0() + ttl, ttl, &mut events, &mut removed);
        assert_eq!(removed.len(), 2);
        assert_eq!(events.len(), 2);
        assert!(obs.table().is_empty());
        assert_eq!(obs.applied(RuntimeId(1)), 0, "version state forgotten");
    }

    #[test]
    fn version_vector_lists_self_then_remotes() {
        let mut origin = DirectoryReplica::new(RuntimeId(7), 64);
        publish(&mut origin, 7, 2);
        let mut obs = DirectoryReplica::new(RuntimeId(3), 64);
        let mut events = Vec::new();
        let p = profile(7, 0, "svc-0", "image/jpeg");
        obs.apply_delta(
            RuntimeId(7),
            home(7),
            1,
            &[DeltaOp::Add(p)],
            t0(),
            &mut events,
        );
        obs.record_local_add(profile(3, 0, "mine", "audio/pcm"), home(3));
        assert_eq!(
            obs.version_vector(),
            vec![(RuntimeId(3), 1), (RuntimeId(7), 1)]
        );
    }

    // -----------------------------------------------------------------
    // The convergence battery (16 randomized cases): random op streams
    // from several origins, delivered to two observers with reordering,
    // duplication and loss, must — after anti-entropy repair — converge
    // both observers to the byte-identical table and index a full-state
    // bootstrap produces.
    // -----------------------------------------------------------------

    const MIMES: &[&str] = &["image/jpeg", "image/png", "audio/pcm", "image/*", "text/ps"];

    /// One random local mutation on `origin`; returns the delta unit.
    fn random_op(
        origin: &mut DirectoryReplica,
        rt: u32,
        next_local: &mut u32,
        alive: &mut Vec<u32>,
        rng: &mut simnet::SimRng,
    ) -> (u64, DeltaOp) {
        let roll = rng.gen_range(0u32..10);
        if roll < 6 || alive.is_empty() {
            // Add a new translator.
            let local = *next_local;
            *next_local += 1;
            alive.push(local);
            let mime = MIMES[rng.gen_range(0usize..MIMES.len())];
            let p = profile(rt, local, &format!("svc-{rt}-{local}"), mime);
            let v = origin.record_local_add(p.clone(), home(rt));
            (v, DeltaOp::Add(p))
        } else if roll < 8 {
            // Update an existing one (same id, new shape/attrs).
            let local = alive[rng.gen_range(0usize..alive.len())];
            let mime = MIMES[rng.gen_range(0usize..MIMES.len())];
            let p = profile(rt, local, &format!("svc-{rt}-{local}"), mime)
                .with_attr("rev", rng.gen_range(0u32..100).to_string());
            let v = origin.record_local_add(p.clone(), home(rt));
            (v, DeltaOp::Add(p))
        } else {
            // Remove one.
            let idx = rng.gen_range(0usize..alive.len());
            let local = alive.swap_remove(idx);
            let id = TranslatorId::new(RuntimeId(rt), local);
            let v = origin.record_local_remove(id).expect("alive");
            (v, DeltaOp::Remove(id))
        }
    }

    /// Applies a mangled copy of the delta stream: random order
    /// perturbation, ~20% loss, ~20% duplication.
    fn deliver_mangled(
        obs: &mut DirectoryReplica,
        streams: &[(u32, Vec<(u64, DeltaOp)>)],
        rng: &mut simnet::SimRng,
    ) {
        let mut queue: Vec<(u32, u64, DeltaOp)> = Vec::new();
        for (rt, deltas) in streams {
            for (v, op) in deltas {
                if rng.gen_bool(0.2) {
                    continue; // lost
                }
                queue.push((*rt, *v, op.clone()));
                if rng.gen_bool(0.2) {
                    queue.push((*rt, *v, op.clone())); // duplicated
                }
            }
        }
        // Random transpositions ≈ network reordering.
        for _ in 0..queue.len() {
            if queue.len() >= 2 {
                let a = rng.gen_range(0usize..queue.len());
                let b = rng.gen_range(0usize..queue.len());
                queue.swap(a, b);
            }
        }
        let mut events = Vec::new();
        for (rt, v, op) in queue {
            let _ = obs.apply_delta(
                RuntimeId(rt),
                home(rt),
                v,
                std::slice::from_ref(&op),
                t0(),
                &mut events,
            );
        }
    }

    /// Anti-entropy rounds until every observer matches every origin's
    /// watermark (bounded; each gap heals in one round).
    fn repair(obs: &mut DirectoryReplica, origins: &[(u32, &DirectoryReplica)]) {
        for round in 0..8 {
            let mut dirty = false;
            for (rt, origin) in origins {
                let vector = vec![(RuntimeId(*rt), origin.own_version())];
                let Some(from) = obs.observe_digest(RuntimeId(*rt), &vector, t0(), no_backoff())
                else {
                    continue;
                };
                dirty = true;
                let mut events = Vec::new();
                match origin.serve_request(from) {
                    ServeReply::Ops { first, ops } => {
                        obs.apply_delta(RuntimeId(*rt), home(*rt), first, &ops, t0(), &mut events);
                    }
                    ServeReply::Snapshot { version, profiles } => {
                        obs.apply_snapshot(
                            RuntimeId(*rt),
                            home(*rt),
                            version,
                            &profiles,
                            t0(),
                            &mut events,
                        );
                    }
                }
            }
            if !dirty {
                return;
            }
            assert!(round < 7, "anti-entropy failed to converge");
        }
    }

    #[test]
    fn mangled_delivery_plus_repair_converges_to_bootstrap() {
        simnet::check_cases("replica_convergence", 16, |case, rng| {
            // Small log caps force the snapshot path in some cases.
            let log_cap = rng.gen_range(4usize..48);
            let origin_ids = [1u32, 2, 3];
            let mut origins: Vec<DirectoryReplica> = origin_ids
                .iter()
                .map(|rt| DirectoryReplica::new(RuntimeId(*rt), log_cap))
                .collect();
            let mut streams: Vec<(u32, Vec<(u64, DeltaOp)>)> = Vec::new();
            for (i, rt) in origin_ids.iter().enumerate() {
                let n_ops = rng.gen_range(5u32..60);
                let mut next_local = 0;
                let mut alive = Vec::new();
                let deltas: Vec<(u64, DeltaOp)> = (0..n_ops)
                    .map(|_| random_op(&mut origins[i], *rt, &mut next_local, &mut alive, rng))
                    .collect();
                streams.push((*rt, deltas));
            }

            // Two independently mangled observers.
            let mut obs_a = DirectoryReplica::new(RuntimeId(10), log_cap);
            let mut obs_b = DirectoryReplica::new(RuntimeId(11), log_cap);
            deliver_mangled(&mut obs_a, &streams, rng);
            deliver_mangled(&mut obs_b, &streams, rng);

            let origin_refs: Vec<(u32, &DirectoryReplica)> = origin_ids
                .iter()
                .map(|rt| (*rt, &origins[(*rt - 1) as usize]))
                .collect();
            repair(&mut obs_a, &origin_refs);
            repair(&mut obs_b, &origin_refs);

            // Reference: a fresh replica bootstrapped from full state.
            let mut boot = DirectoryReplica::new(RuntimeId(12), log_cap);
            let mut events = Vec::new();
            for (rt, origin) in &origin_refs {
                let profiles: Vec<TranslatorProfile> = origin
                    .table()
                    .local_entries()
                    .map(|e| e.profile.clone())
                    .collect();
                boot.apply_snapshot(
                    RuntimeId(*rt),
                    home(*rt),
                    origin.own_version(),
                    &profiles,
                    t0(),
                    &mut events,
                );
            }

            for r in origins.iter().chain([&obs_a, &obs_b, &boot]) {
                r.check_invariants().expect("index exact, log at watermark");
            }
            let expect = boot.fingerprint();
            assert_eq!(
                obs_a.fingerprint(),
                expect,
                "case {case}: observer A diverged"
            );
            assert_eq!(
                obs_b.fingerprint(),
                expect,
                "case {case}: observer B diverged"
            );

            // Index agreement too: every lookup path must see the same
            // federation through all three replicas.
            let queries = [
                Query::All,
                Query::has_port(
                    Direction::Output,
                    PortKind::Digital("image/jpeg".parse().expect("mime")),
                ),
                Query::has_port(
                    Direction::Output,
                    PortKind::Digital("image/*".parse().expect("mime")),
                ),
                Query::has_port(
                    Direction::Output,
                    PortKind::Digital(crate::mime::MimeType::any()),
                ),
            ];
            for q in &queries {
                let ids = |r: &DirectoryReplica| -> Vec<TranslatorId> {
                    r.table().lookup(q).iter().map(|p| p.id()).collect()
                };
                assert_eq!(ids(&obs_a), ids(&boot), "case {case}: lookup {q:?}");
                assert_eq!(ids(&obs_b), ids(&boot), "case {case}: lookup {q:?}");
            }

            // And the applied watermarks match the origins' versions.
            for (rt, origin) in &origin_refs {
                assert_eq!(obs_a.applied(RuntimeId(*rt)), origin.own_version());
                assert_eq!(obs_b.applied(RuntimeId(*rt)), origin.own_version());
            }
        });
    }
}
