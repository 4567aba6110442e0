//! Bitset-backed dirty-slot index for the rescan queue.
//!
//! Registering a new candidate marks the stored sentences that contain
//! its whole token sequence as dirty, and every newly stored sentence is
//! dirty until its first scan. [`DirtySet`] holds those slot indices as a
//! growable bitset plus a cached population count: insert/remove/contains
//! are a word index and a mask, and iteration walks set bits in ascending
//! slot order, so rescans replay in stream order (the order output
//! bit-identity depends on). It replaced a `BTreeSet<usize>`, whose
//! ~100ns insert was the largest ingest cost when registration still
//! dirtied every sentence holding a candidate's first token.
//!
//! Checkpoints serialize the set as a sorted index list, byte-identical
//! to the list the `BTreeSet` produced, so the on-disk schema is
//! unaffected by the representation swap.

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};

/// A set of `usize` slot indices stored as a bitset. Grows on insert;
/// memory is one bit per slot up to the largest index ever inserted
/// (slot indices are compacted with the sentence store, so this stays
/// O(window)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    words: Vec<u64>,
    len: usize,
}

impl DirtySet {
    /// Empty set.
    pub fn new() -> DirtySet {
        DirtySet::default()
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `i`. Returns `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += fresh as usize;
        fresh
    }

    /// Remove `i`. Returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        match self.words.get_mut(w) {
            Some(word) if *word & b != 0 => {
                *word &= !b;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Is `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Remove every index.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterate the indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1); // clear lowest set bit
                (w != 0).then_some(w)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Empty the set, returning its former contents in ascending order.
    pub fn take_sorted(&mut self) -> Vec<usize> {
        let out: Vec<usize> = self.iter().collect();
        self.clear();
        out
    }
}

impl FromIterator<usize> for DirtySet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> DirtySet {
        let mut s = DirtySet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

// Checkpoints carry the sorted index list — the same value a
// `BTreeSet<usize>` serialized to, so the swap is schema-invisible.
impl Serialize for DirtySet {
    fn write_json(&self, out: &mut serde::ser::Out<'_>) {
        serde::ser::write_seq(self.iter(), out);
    }
}

impl Deserialize for DirtySet {
    fn from_value(v: &Value) -> Result<DirtySet, DeError> {
        Ok(Vec::<usize>::from_value(v)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_len() {
        let mut s = DirtySet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert_eq!(s.len(), 4);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(12345));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty() && !s.contains(0));
    }

    #[test]
    fn iterates_in_ascending_order_like_btreeset() {
        use std::collections::BTreeSet;
        let idxs = [700usize, 0, 63, 64, 65, 3, 127, 128, 700, 9];
        let s: DirtySet = idxs.iter().copied().collect();
        let b: BTreeSet<usize> = idxs.iter().copied().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            b.into_iter().collect::<Vec<_>>()
        );
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn take_sorted_drains() {
        let mut s: DirtySet = [9usize, 2, 2, 400].into_iter().collect();
        assert_eq!(s.take_sorted(), vec![2, 9, 400]);
        assert!(s.is_empty());
        assert_eq!(s.take_sorted(), Vec::<usize>::new());
    }

    #[test]
    fn serde_round_trip_matches_btreeset_schema() {
        use std::collections::BTreeSet;
        let idxs = [77usize, 1, 300, 64];
        let s: DirtySet = idxs.iter().copied().collect();
        let b: BTreeSet<usize> = idxs.iter().copied().collect();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        assert_eq!(json, "[1,64,77,300]");
        let back: DirtySet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
