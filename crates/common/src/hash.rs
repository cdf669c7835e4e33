//! A small deterministic hasher for maps keyed by internal integer ids.
//!
//! `std`'s default SipHash resists hash flooding by attacker-chosen keys, at
//! the price of tens of nanoseconds per lookup. The simulator's hot maps are
//! keyed by ids the program itself mints and validates (host pairs, message
//! tokens, `(rank, tag)` pairs), so a multiply–rotate hash in the style of
//! rustc's FxHash suffices: one rotate, xor and multiply per machine word,
//! and the same hash on every run and every machine.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–rotate hasher for integer keys and tuples of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

/// An odd 64-bit constant with well-mixed bits (FxHash's).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`IdHasher`]. Only for keys the program mints or
/// validates itself: the hash is fixed, so chosen keys could collide.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashes_are_fixed_and_distinguish_tuple_order() {
        assert_eq!(hash_of(7u64), 7u64.wrapping_mul(K));
        assert_ne!(hash_of((1usize, 2u32)), hash_of((2usize, 1u32)));
        assert_ne!(
            hash_of([1u8, 2, 3].as_slice()),
            hash_of([1u8, 2, 0].as_slice())
        );
    }

    #[test]
    fn id_map_round_trips_dense_and_sparse_keys() {
        let mut m: IdMap<(u32, u32), u64> = IdMap::default();
        for a in 0..64u32 {
            for b in [0u32, 1, 1 << 20, u32::MAX] {
                m.insert((a, b), u64::from(a) ^ u64::from(b));
            }
        }
        assert_eq!(m.len(), 256);
        assert_eq!(m[&(5, 1 << 20)], 5 ^ (1 << 20));
        assert_eq!(m.get(&(64, 0)), None);
    }
}
