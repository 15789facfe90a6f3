//! Hash-consing tables for the hot paths: port-name [`Symbol`]s and
//! decoded directory profiles.
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
//! The profile table does the same for [`TranslatorProfile`]s decoded
//! off the wire. Every runtime keeps a full directory replica, so one
//! gossiped delta is decoded by every runtime on the host; keyed by the
//! profile's exact encoded bytes, the table lets the decoder hand all of
//! them one shared, immutable description (see
//! [`crate::wire`]). Unlike symbols, profiles come and go with device
//! churn, so this table is bounded by the live set instead of leaked.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Deref;

use crate::profile::TranslatorProfile;

thread_local! {
    static INTERNER: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
    static PROFILES: RefCell<ProfileTable> = RefCell::new(ProfileTable::default());
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

/// This thread's decoded profiles, keyed by their exact encoded bytes.
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
    by_bytes: HashMap<Box<[u8]>, TranslatorProfile>,
    purge_at: usize,
}

/// The profile previously decoded from exactly `bytes` on this thread,
/// if the table still holds it.
pub(crate) fn cached_profile(bytes: &[u8]) -> Option<TranslatorProfile> {
    PROFILES.with(|t| t.borrow().by_bytes.get(bytes).cloned())
}

/// Records that `bytes` decoded successfully to `profile`. The caller
/// guarantees `bytes` is exactly the extent the decode consumed.
pub(crate) fn store_profile(bytes: &[u8], profile: &TranslatorProfile) {
    PROFILES.with(|t| {
        let t = &mut *t.borrow_mut();
        t.by_bytes.insert(bytes.into(), profile.clone());
        if t.by_bytes.len() > t.purge_at.max(PROFILE_PURGE_MIN) {
            t.by_bytes.retain(|_, p| p.is_shared());
            t.purge_at = 2 * t.by_bytes.len();
        }
    })
}

/// Entries in this thread's profile table (for the bound tests).
#[cfg(test)]
pub(crate) fn profile_table_len() -> usize {
    PROFILES.with(|t| t.borrow().by_bytes.len())
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
    fn debug_matches_string_debug() {
        let s = Symbol::new("image\"out");
        assert_eq!(format!("{s:?}"), format!("{:?}", "image\"out"));
    }
}
