//! Per-thread sharing for the hot paths: port-name [`Symbol`]s, the
//! last decoded directory multicast, and decoded directory profiles.
//!
//! Every message delivery used to clone the destination port name
//! (`PortRef.port: String`) at least once — into the runtime request,
//! into the path message, into the delegate event. Port names are drawn
//! from a tiny, stable vocabulary (`"in"`, `"image-out"`, …), so the
//! interner stores each distinct name once and hands out a [`Symbol`]:
//! a `Copy` reference that compares, orders and hashes by *content*,
//! making it a drop-in replacement for the `String` it displaced —
//! including its wire encoding, which is still the UTF-8 bytes
//! (`Symbol` derefs to `str`).
//!
//! The intern table is thread-local (simulations are single-threaded
//! worlds; distinct test threads get independent tables) and entries
//! are leaked: the vocabulary is bounded by the set of distinct port
//! names in the federation, a few dozen short strings.
//!
//! Every runtime keeps a full directory replica, so one gossiped frame
//! reaches every runtime on the host. The frame slot keeps the last
//! directory multicast (`Probe`, `Delta` or `Digest`) received on this
//! thread together with its decoded message, keyed by the exact view of
//! the frame's shared buffer: the multicast fan-out hands every receiver
//! a view of one buffer, so the frame is decoded by its first receiver
//! and borrowed by the rest. Decoding is a pure function of the bytes,
//! so a hit is indistinguishable from a fresh decode.
//!
//! The profile table hash-conses [`TranslatorProfile`]s decoded off the
//! wire for the frames the slot does not share: unicast `Snapshot`s and
//! the `Delta`s an origin replays at bootstrap and repair carry profiles
//! that earlier deltas already carried. Keyed by translator id, each
//! entry keeps the last profile decoded under that id beside its exact
//! encoding; a decode whose remaining frame starts with that encoding
//! gets the one shared, immutable description (see [`crate::wire`]).
//! Unlike symbols, profiles come and go with device churn, so this table
//! is bounded by the live set instead of leaked.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use simnet::{IntMap, Payload};

use crate::id::TranslatorId;
use crate::profile::TranslatorProfile;
use crate::wire::WireMessage;

thread_local! {
    static INTERNER: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
    static PROFILES: RefCell<ProfileTable> = RefCell::new(ProfileTable::default());
    static LAST_FRAME: RefCell<Option<(Payload, Rc<WireMessage>)>> = const { RefCell::new(None) };
}

/// An interned string: a `Copy` handle to a canonical, leaked `&str`.
///
/// Equality, ordering and hashing all delegate to the string content,
/// so two symbols created on different threads (different intern
/// tables) still compare equal when they spell the same name.
///
/// # Examples
///
/// ```
/// use umiddle_core::Symbol;
///
/// let a = Symbol::new("image-out");
/// let b: Symbol = "image-out".into();
/// assert_eq!(a, b);
/// assert_eq!(&*a, "image-out");     // derefs to str
/// assert_eq!(a.to_string(), "image-out");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(&'static str);

impl Symbol {
    /// Interns `name` (a no-op when it is already in this thread's
    /// table) and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        INTERNER.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(&interned) = table.get(name) {
                return Symbol(interned);
            }
            let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
            table.insert(interned);
            Symbol(interned)
        })
    }

    /// The interned string slice.
    pub fn as_str(&self) -> &str {
        self.0
    }

    /// The interned string slice, which lives as long as the process.
    pub fn as_static(self) -> &'static str {
        self.0
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl std::borrow::Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the Debug output of the String this type replaced, so
        // debug-formatted artifacts are byte-identical.
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(&s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.to_owned()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.0
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.0
    }
}

/// The smallest size the profile table purges at.
const PROFILE_PURGE_MIN: usize = 1024;

/// This thread's decoded profiles, keyed by translator id, each beside
/// the exact bytes it was decoded from.
///
/// Bounded without a purge per insert: once the table holds more than
/// `purge_at` entries, the entries no replica still holds (the table's
/// reference is the only one) are dropped, and `purge_at` becomes twice
/// the surviving count (at least [`PROFILE_PURGE_MIN`]). Each purge
/// costs O(table) and follows at least as many inserts as entries
/// survived it, so inserts stay amortised O(1), and the table never
/// exceeds `max(PROFILE_PURGE_MIN, 2 × live)` entries, where `live` is
/// the number of decoded profiles held elsewhere at the last purge.
#[derive(Default)]
struct ProfileTable {
    by_id: IntMap<TranslatorId, (Box<[u8]>, TranslatorProfile)>,
    purge_at: usize,
}

/// The profile last decoded under `id` on this thread and the length of
/// its encoding, if the table still holds it and `frame` starts with
/// that encoding.
pub(crate) fn cached_profile(id: TranslatorId, frame: &[u8]) -> Option<(TranslatorProfile, usize)> {
    PROFILES.with(|t| {
        let t = t.borrow();
        let (bytes, profile) = t.by_id.get(&id)?;
        frame
            .starts_with(bytes)
            .then(|| (profile.clone(), bytes.len()))
    })
}

/// Records that `bytes` decoded successfully to `profile`, replacing
/// whatever was last decoded under its id. The caller guarantees
/// `bytes` is exactly the extent the decode consumed.
pub(crate) fn store_profile(bytes: &[u8], profile: &TranslatorProfile) {
    PROFILES.with(|t| {
        let t = &mut *t.borrow_mut();
        t.by_id
            .insert(profile.id(), (bytes.into(), profile.clone()));
        if t.by_id.len() > t.purge_at.max(PROFILE_PURGE_MIN) {
            t.by_id.retain(|_, (_, p)| p.is_shared());
            t.purge_at = 2 * t.by_id.len();
        }
    })
}

/// The message stored for exactly this view of a received frame (same
/// backing buffer, offset and length), if it is this thread's last one.
pub(crate) fn shared_frame(frame: &Payload) -> Option<Rc<WireMessage>> {
    LAST_FRAME.with(|slot| match &*slot.borrow() {
        Some((key, msg)) if key.same_view(frame) => Some(Rc::clone(msg)),
        _ => None,
    })
}

/// Keeps `msg`, decoded successfully from `frame`, for the frame's next
/// receiver. The slot owns `frame`, so its buffer cannot be freed and
/// its address reused by another frame while the slot keys on it.
pub(crate) fn store_frame(frame: Payload, msg: Rc<WireMessage>) {
    LAST_FRAME.with(|slot| *slot.borrow_mut() = Some((frame, msg)));
}

/// Empties this thread's frame slot (for the cold-decode tests).
#[cfg(test)]
pub(crate) fn clear_frame() {
    LAST_FRAME.with(|slot| *slot.borrow_mut() = None);
}

/// Entries in this thread's profile table (for the bound tests).
#[cfg(test)]
pub(crate) fn profile_table_len() -> usize {
    PROFILES.with(|t| t.borrow().by_id.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_string() {
        let s = Symbol::new("media-in");
        assert_eq!(s.as_str(), "media-in");
        assert_eq!(String::from(s), "media-in");
        assert_eq!(Symbol::from(String::from(s)), s);
    }

    #[test]
    fn interning_is_idempotent_and_pointer_stable() {
        let a = Symbol::new("in");
        let b = Symbol::new("in");
        assert_eq!(a, b);
        // Same thread → same canonical allocation.
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let c = Symbol::new("out");
        assert_ne!(a, c);
    }

    #[test]
    fn comparison_is_by_content() {
        let a = Symbol::new("a");
        let b = Symbol::new("b");
        assert!(a < b);
        assert_eq!(a, "a");
        assert_eq!(a, "a".to_owned());
        assert_eq!("a", &*a);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        set.insert(Symbol::new("a"));
        assert_eq!(set.len(), 1);
        // Borrow<str> lets Symbol-keyed maps answer &str lookups.
        assert!(set.contains("a"));
    }

    #[test]
    fn symbols_agree_across_thread_local_tables() {
        // Two runtimes in different worlds/threads intern independently;
        // symbols must still compare by content, never by table identity.
        let local = Symbol::new("cross-runtime");
        let remote = std::thread::spawn(|| Symbol::new("cross-runtime"))
            .join()
            .expect("intern thread panicked");
        assert_eq!(local, remote);
        assert_eq!(remote.as_str(), "cross-runtime");
        let other = std::thread::spawn(|| Symbol::new("something-else"))
            .join()
            .expect("intern thread panicked");
        assert_ne!(local, other);
    }

    #[test]
    fn shared_frame_is_served_only_for_the_same_view() {
        let msg = WireMessage::Probe {
            reply_to: simnet::Addr::new(simnet::NodeId::from_index(1), 47_000),
        };
        let bytes = msg.encode();
        // One buffer holding the frame twice: two views with equal bytes
        // and equal lengths at different offsets.
        let twice = Payload::from([bytes.as_slice(), bytes.as_slice()].concat());
        let frame = twice.slice(0..bytes.len());
        let later = twice.slice(bytes.len()..2 * bytes.len());
        assert_eq!(frame, later);
        store_frame(frame.clone(), Rc::new(msg.clone()));
        assert_eq!(shared_frame(&frame).as_deref(), Some(&msg));
        // Every receiver of a fan-out holds a clone of the sender's view.
        assert_eq!(shared_frame(&frame.clone()).as_deref(), Some(&msg));
        assert!(shared_frame(&later).is_none());
        assert!(shared_frame(&twice.slice(0..bytes.len() - 1)).is_none());
        assert!(shared_frame(&Payload::copy_from_slice(&bytes)).is_none());
        // A new frame replaces the old one.
        store_frame(later.clone(), Rc::new(msg.clone()));
        assert!(shared_frame(&later).is_some());
        assert!(shared_frame(&frame).is_none());
    }

    #[test]
    fn debug_matches_string_debug() {
        let s = Symbol::new("image\"out");
        assert_eq!(format!("{s:?}"), format!("{:?}", "image\"out"));
    }
}
