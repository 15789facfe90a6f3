//! One integer hasher for every hash table keyed by ids, addresses or
//! other small integers.

use std::collections::HashMap;
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
        for &b in bytes {
            self.write_u64(u64::from(b));
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
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

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
}
