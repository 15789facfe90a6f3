//! The directory table against an id-ordered oracle: random upserts,
//! refreshes, removals, origin evictions and TTL expiry, checked through
//! the public API after every step.

use std::collections::BTreeMap;

use simnet::{Addr, NodeId, SimRng, SimTime};
use umiddle_core::{
    Direction, DirectoryEntry, DirectoryTable, PortKind, Query, RuntimeId, Shape, TranslatorId,
    TranslatorProfile, UpsertEffect,
};

fn mime(m: &str) -> PortKind {
    PortKind::Digital(m.parse().expect("mime"))
}

fn direction(rng: &mut SimRng) -> Direction {
    if rng.gen_bool(0.5) {
        Direction::Input
    } else {
        Direction::Output
    }
}

/// A random profile for `id`: up to three digital ports of random
/// direction and type, concrete or wildcard.
fn random_profile(rng: &mut SimRng, id: TranslatorId) -> TranslatorProfile {
    const MIMES: [&str; 6] = ["app/a", "app/b", "text/x", "app/*", "*/x", "*/*"];
    let mut shape = Shape::builder();
    for k in 0..rng.gen_range(0usize..4) {
        let dir = direction(rng);
        let m = MIMES[rng.gen_range(0..MIMES.len())].parse().expect("mime");
        shape = shape.digital(&format!("p{k}"), dir, m);
    }
    let name = ["cam", "tv", "mic"][rng.gen_range(0usize..3)];
    TranslatorProfile::builder(id, name)
        .shape(shape.build().expect("shape"))
        .build()
}

/// After every step the indexes are exact, and `iter`, `local_entries`,
/// `origin_entries`, the fingerprint and every lookup shape agree with
/// the oracle. Fingerprints do not depend on insertion order. Lookups
/// begin at a random step, so the first one builds the indexes over a
/// table that has already churned.
#[test]
fn random_steps_agree_with_an_ordered_oracle() {
    simnet::check_cases("directory_oracle", 48, |_, rng| {
        let mut t = DirectoryTable::new();
        let mut oracle: BTreeMap<TranslatorId, DirectoryEntry> = BTreeMap::new();
        let first_lookup = rng.gen_range(0u64..64);
        for step in 0..64u64 {
            let now = SimTime::from_secs(step);
            let rt = rng.gen_range(0u32..4);
            let id = TranslatorId::new(RuntimeId(rt), rng.gen_range(0u32..6));
            let home = Addr::new(NodeId::from_index(rt as usize), 47_001);
            match rng.gen_range(0u32..12) {
                // Upsert: a new translator, or a changed shape; some
                // remote entries carry a finite TTL.
                0..=4 => {
                    let local = rng.gen_bool(0.2);
                    let expires = if rng.gen_bool(0.3) {
                        SimTime::from_secs(step + rng.gen_range(0u64..16))
                    } else {
                        SimTime::MAX
                    };
                    let entry = DirectoryEntry {
                        profile: random_profile(rng, id),
                        home,
                        expires,
                        local,
                    };
                    let effect = t.upsert(entry.profile.clone(), home, expires, local);
                    let expect = match oracle.insert(id, entry) {
                        Some(_) => UpsertEffect::Refreshed,
                        None => UpsertEffect::Appeared,
                    };
                    assert_eq!(effect, expect);
                }
                // Refresh: re-advertise an entry as it is.
                5 | 6 => {
                    if let Some(e) = oracle.get(&id) {
                        let effect = t.upsert(e.profile.clone(), e.home, e.expires, e.local);
                        assert_eq!(effect, UpsertEffect::Refreshed);
                    }
                }
                7 | 8 => {
                    assert_eq!(t.remove(id).is_some(), oracle.remove(&id).is_some());
                }
                9 => {
                    let mut removed = Vec::new();
                    t.remove_origin(RuntimeId(rt), &mut removed);
                    let expect: Vec<TranslatorId> = oracle
                        .keys()
                        .filter(|i| i.runtime.0 == rt)
                        .copied()
                        .collect();
                    oracle.retain(|i, _| i.runtime.0 != rt);
                    assert_eq!(removed, expect);
                }
                _ => {
                    let expect: Vec<TranslatorId> = oracle
                        .iter()
                        .filter(|(_, e)| !e.local && e.expires <= now)
                        .map(|(i, _)| *i)
                        .collect();
                    oracle.retain(|_, e| e.local || e.expires > now);
                    assert_eq!(t.expire(now), expect);
                }
            }

            t.check_invariants().expect("index exact");
            assert_eq!(t.len(), oracle.len());
            assert!(t.iter().eq(oracle.values()), "iter() order or content");
            assert!(
                t.local_entries().eq(oracle.values().filter(|e| e.local)),
                "local_entries() order or content"
            );
            assert!(
                t.origin_entries(RuntimeId(rt))
                    .eq(oracle.values().filter(|e| e.profile.id().runtime.0 == rt)),
                "origin_entries() order or content"
            );
            // The same content inserted in reverse order digests alike.
            let mut reversed = DirectoryTable::new();
            for e in oracle.values().rev() {
                reversed.upsert(e.profile.clone(), e.home, SimTime::MAX, false);
            }
            assert_eq!(t.fingerprint(), reversed.fingerprint());

            if step < first_lookup {
                continue;
            }
            let dir = direction(rng);
            let concrete = Query::has_port(
                dir,
                mime(["app/a", "app/b", "text/x"][rng.gen_range(0usize..3)]),
            );
            let queries = [
                concrete.clone(),
                Query::has_port(dir, mime("app/*")),
                Query::has_port(dir, mime("*/*")),
                concrete.and(Query::NameContains("c".to_owned())),
                Query::NameContains("m".to_owned()),
            ];
            for q in &queries {
                let got: Vec<TranslatorId> = t.lookup(q).iter().map(|p| p.id()).collect();
                let expect: Vec<TranslatorId> = oracle
                    .iter()
                    .filter(|(_, e)| q.matches(&e.profile))
                    .map(|(i, _)| *i)
                    .collect();
                assert_eq!(got, expect, "lookup {q:?}");
            }
        }
        // Only the name query in each step that looks up scans.
        assert_eq!(t.scan_fallbacks(), 64 - first_lookup);
    });
}
