//! A seeded multiplicative hasher for tables keyed by ids the program
//! assigns itself.
//!
//! std's default hasher (SipHash) resists keys crafted to collide, and
//! pays tens of cycles a probe for it. The CTrie's `(node, symbol)` edges
//! and the adjacency ledger's `(candidate, candidate)` pairs are keyed by
//! integers the pipeline hands out, which no stream can choose, so those
//! tables hash each integer word with an Fx-style rotate, xor and
//! multiply instead. The seed is drawn once per table from
//! [`RandomState`], so iteration order stays as unpredictable as under
//! the default hasher and nothing can come to depend on it.
//!
//! Tables keyed by stream input (the interner's token strings, sentence
//! ids) keep `RandomState`: there a crafted stream could force collisions.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A map keyed by program-assigned ids.
pub type IdHashMap<K, V> = HashMap<K, V, IdHash>;

/// Fx's multiplier: an odd 64-bit constant with well-spread bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds each integer word into the state by rotate, xor and multiply.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

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
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    /// The product's high bits are its best mixed, and a table picks a
    /// bucket from the low ones: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s from one seed. `Default` draws a fresh seed; a
/// table's clone keeps its seed, so `Copy` keys and values still clone
/// as one block copy.
#[derive(Debug, Clone, Copy)]
pub struct IdHash {
    seed: u64,
}

impl IdHash {
    /// A builder with a fixed seed (tests pin iteration orders with it).
    pub fn with_seed(seed: u64) -> IdHash {
        IdHash { seed }
    }
}

impl Default for IdHash {
    fn default() -> IdHash {
        IdHash::with_seed(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { hash: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_seeds_differ() {
        let (a, b) = (IdHash::with_seed(1), IdHash::with_seed(2));
        assert_eq!(a.hash_one((3u32, 4u32)), a.hash_one((3u32, 4u32)));
        assert_ne!(a.hash_one((3u32, 4u32)), a.hash_one((4u32, 3u32)));
        assert_ne!(a.hash_one((3u32, 4u32)), b.hash_one((3u32, 4u32)));
        // Fresh builders draw fresh seeds.
        let (c, d) = (IdHash::default(), IdHash::default());
        assert_ne!(c.hash_one(7u32), d.hash_one(7u32));
    }
}
