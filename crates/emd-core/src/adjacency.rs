//! The adjacency ledger: how often each ordered pair of candidates was
//! extracted side by side, the evidence adjacent-pair promotion reads at
//! stream close.
//!
//! The ledger changes where a record's mentions change, and is never
//! rebuilt. A rescan that stores a new extraction counts its adjacent
//! pairs and uncounts the old ones; quarantining a record or replacing
//! its sentence (a re-delivered id) uncounts them. Eviction does nothing:
//! an evicted record's pairs stay counted as they stood when it left the
//! window, so bounding memory does not erase multi-token-entity evidence.
//! So the ledger holds the adjacent pairs of every live record's stored
//! `global_mentions` plus those of every evicted record at eviction.
//!
//! Keys are candidate keys (lower-cased, space-joined surfaces), shared
//! `Arc<str>`s, so cloning the ledger (the supervisor snapshots the state
//! before every batch) copies one table and no string. Counting runs in
//! every batch's scan apply, so it is a hash probe by borrowed strings
//! that allocates only for a new pair. A pair whose count falls to zero
//! is removed. Readers see the pairs in key order: promotion candidates
//! and checkpoints are sorted, so no iteration order leaks out.

use crate::tweetbase::TweetRecord;
use emd_text::token::Span;
use serde::value::Value;
use serde::{ser, DeError, Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Adjacent-pair counts keyed by `(left candidate key, right candidate
/// key)`. See the module docs for when it changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjacencyLedger {
    counts: HashMap<Pair, u64>,
}

/// An owned ledger key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Pair(Arc<str>, Arc<str>);

/// A key seen as two strings, so a lookup by `(&str, &str)` borrows
/// instead of allocating. Hashes and compares exactly as [`Pair`]'s
/// derived impls do.
trait PairKey {
    fn key(&self) -> (&str, &str);
}

impl PairKey for Pair {
    fn key(&self) -> (&str, &str) {
        (&self.0, &self.1)
    }
}

impl PairKey for (&str, &str) {
    fn key(&self) -> (&str, &str) {
        *self
    }
}

impl<'a> Borrow<dyn PairKey + 'a> for Pair {
    fn borrow(&self) -> &(dyn PairKey + 'a) {
        self
    }
}

impl PartialEq for dyn PairKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn PairKey + '_ {}

impl Hash for dyn PairKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Indices `i` where `mentions[i - 1]` ends exactly where `mentions[i]`
/// starts. Extraction emits ascending, non-overlapping spans, so
/// consecutive entries are the only adjacency candidates.
fn touching(mentions: &[Span]) -> impl Iterator<Item = usize> + '_ {
    (1..mentions.len()).filter(|&i| mentions[i - 1].end == mentions[i].start)
}

impl AdjacencyLedger {
    /// Count every adjacent pair among `mentions`, where `key(i)` is the
    /// candidate key of `mentions[i]`.
    pub fn add<K: AsRef<str>>(&mut self, mentions: &[Span], key: impl Fn(usize) -> K) {
        for i in touching(mentions) {
            let (a, b) = (key(i - 1), key(i));
            let (a, b) = (a.as_ref(), b.as_ref());
            match self.counts.get_mut(&(a, b) as &dyn PairKey) {
                Some(n) => *n += 1,
                None => {
                    self.counts.insert(Pair(a.into(), b.into()), 1);
                }
            }
        }
    }

    /// Uncount every adjacent pair among `mentions`, as [`add`] counted
    /// them. Callers only uncount what they counted; the apply steps that
    /// call this must not fail, so a pair that is missing anyway is
    /// skipped.
    ///
    /// [`add`]: AdjacencyLedger::add
    pub fn remove<K: AsRef<str>>(&mut self, mentions: &[Span], key: impl Fn(usize) -> K) {
        for i in touching(mentions) {
            let (a, b) = (key(i - 1), key(i));
            let pair: &dyn PairKey = &(a.as_ref(), b.as_ref());
            if let Some(n) = self.counts.get_mut(pair) {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(pair);
                }
            }
        }
    }

    /// Count the adjacent pairs of a record's stored `global_mentions`.
    pub fn add_record(&mut self, rec: &TweetRecord) {
        let m = &rec.global_mentions;
        self.add(m, |i| m[i].surface_lower(&rec.sentence));
    }

    /// Uncount the adjacent pairs of a record's stored `global_mentions`.
    pub fn remove_record(&mut self, rec: &TweetRecord) {
        let m = &rec.global_mentions;
        self.remove(m, |i| m[i].surface_lower(&rec.sentence));
    }

    /// `(left key, right key, count)` for every pair counted at least
    /// `min` times, in key order.
    pub fn at_least(&self, min: u64) -> Vec<(&str, &str, u64)> {
        let mut pairs: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &n)| n >= min)
            .map(|(p, &n)| (&*p.0, &*p.1, n))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// The ledger a format-v4 checkpoint implies: its `frozen_adjacency`
    /// entries (the pairs of the records evicted so far) plus the pairs
    /// of every live record's stored mentions, which v4 counted only at
    /// the close.
    pub(crate) fn from_v4<'r>(
        frozen: &Value,
        live: impl Iterator<Item = &'r TweetRecord>,
    ) -> Result<AdjacencyLedger, DeError> {
        #[derive(Deserialize)]
        struct FrozenPairV4 {
            first: Arc<str>,
            second: Arc<str>,
            count: u64,
        }
        let mut ledger = AdjacencyLedger::default();
        for e in Vec::<FrozenPairV4>::from_value(frozen)? {
            ledger.add_count(Pair(e.first, e.second), e.count);
        }
        live.for_each(|rec| ledger.add_record(rec));
        Ok(ledger)
    }

    fn add_count(&mut self, pair: Pair, n: u64) {
        if n > 0 {
            *self.counts.entry(pair).or_insert(0) += n;
        }
    }
}

/// Encodes as `[[first, second, count], ...]` in key order.
impl Serialize for AdjacencyLedger {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self.at_least(1), out);
    }
}

impl Deserialize for AdjacencyLedger {
    fn from_value(v: &Value) -> Result<AdjacencyLedger, DeError> {
        let mut ledger = AdjacencyLedger::default();
        for (first, second, n) in Vec::<(Arc<str>, Arc<str>, u64)>::from_value(v)? {
            ledger.add_count(Pair(first, second), n);
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(bounds: &[(usize, usize)]) -> Vec<Span> {
        bounds.iter().map(|&(s, e)| Span::new(s, e)).collect()
    }

    #[test]
    fn counts_touching_pairs_and_removes_zero_entries() {
        let keys = ["a", "b c", "d", "e"];
        // a|b c|d touch; d and e have a gap.
        let m = spans(&[(0, 1), (1, 3), (3, 4), (5, 6)]);
        let mut l = AdjacencyLedger::default();
        l.add(&m, |i| keys[i]);
        l.add(&m[..2], |i| keys[i]);
        assert_eq!(l.at_least(1), vec![("a", "b c", 2), ("b c", "d", 1)]);
        assert_eq!(l.at_least(2), vec![("a", "b c", 2)]);
        l.remove(&m, |i| keys[i]);
        assert_eq!(l.at_least(1), vec![("a", "b c", 1)]);
        l.remove(&m[..2], |i| keys[i]);
        assert_eq!(l, AdjacencyLedger::default(), "zero counts are removed");
    }

    #[test]
    fn reads_and_round_trips_in_key_order() {
        let mut l = AdjacencyLedger::default();
        let m = spans(&[(0, 1), (1, 2)]);
        for (a, b) in [("z", "a"), ("a", "z"), ("a", "b")] {
            l.add(&m, |i| [a, b][i]);
        }
        let pairs: Vec<_> = l.at_least(1).into_iter().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(pairs, vec![("a", "b"), ("a", "z"), ("z", "a")]);
        let json = serde_json::to_string(&l).unwrap();
        assert_eq!(json, r#"[["a","b",1],["a","z",1],["z","a",1]]"#);
        assert_eq!(serde_json::from_str::<AdjacencyLedger>(&json).unwrap(), l);
    }
}
