//! One integer hasher for every hash table keyed by ids, addresses or
//! other small integers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hash for integer keys (correlation ids, addresses,
/// translator ids): one multiply per word where the default hasher runs
/// SipHash. Not collision-resistant against chosen keys, which no
/// simulated key is. Iteration order of a map using it is a function of
/// the keys alone, but callers that need a deterministic order sort.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // The product's high bits mix every input bit; rotate them into
        // the low bits the table indexes by.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // One round per eight bytes, so a short name (a port symbol) or
        // a `u16` key costs one or two multiplies.
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` hashed by [`IntHasher`].
///
/// Its iteration order is fixed by the keys, so a loop over it that
/// leaked the order into simulated output would replay identically and
/// never show up as nondeterminism: every loop over an `IntMap` must be
/// order-free (removals, sums, all-or-nothing checks) or sort its keys.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`]; the [`IntMap`] iteration rule
/// applies.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = IntHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_u32_hashes_as_one_word() {
        // `write_u32` is one multiply, not four byte rounds.
        let mut h = IntHasher::default();
        h.write_u64(7);
        assert_eq!(hash_of(7u32), h.finish());
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn bytes_hash_a_word_at_a_time() {
        // A `u16` is one padded word; a string is its words plus the
        // `0xff` terminator, so neither a prefix nor a shift collides.
        let mut h = IntHasher::default();
        h.write_u64(0x0201);
        assert_eq!(hash_of(0x0201u16), h.finish());
        assert_ne!(hash_of("media-out"), hash_of("media-ou"));
        assert_ne!(hash_of("ab"), hash_of("ba"));
        assert_ne!(hash_of(("a", "bc")), hash_of(("ab", "c")));
    }
}
