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
//! Pruning a candidate drops every pair it is part of: its id is freed
//! for reuse, and a rediscovered candidate starts with no evidence, as it
//! starts with an empty pool. So the ledger holds the adjacent pairs of
//! every live record's stored `global_mentions` plus those of every
//! evicted record at eviction, minus the pairs of pruned candidates.
//!
//! Pairs are keyed by [`CandId`]s, which the program assigns, so counting
//! is an integer-pair probe under the seeded id hasher
//! ([`emd_text::idhash`]), and cloning the ledger (the supervisor
//! snapshots the state before every batch) copies one table. A pair whose count falls to zero
//! is removed. Readers see the pairs in id order: promotion candidates
//! and checkpoints are sorted, so no iteration order leaks out.

use crate::candidatebase::CandId;
use crate::ctrie::CTrie;
use crate::tweetbase::TweetRecord;
use emd_text::idhash::IdHashMap;
use emd_text::token::Span;
use serde::value::Value;
use serde::{ser, DeError, Deserialize, Serialize};

/// Adjacent-pair counts keyed by `(left candidate, right candidate)`. See
/// the module docs for when it changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdjacencyLedger {
    counts: IdHashMap<(CandId, CandId), u64>,
}

/// The `(left, right)` ids of every two consecutive `mentions` where the
/// first ends exactly where the second starts (extraction emits
/// ascending, non-overlapping spans, so consecutive entries are the only
/// adjacency candidates). `id(i)` names `mentions[i]`'s candidate; a pair
/// with an unnamed side is skipped.
fn touching<'a>(
    mentions: &'a [Span],
    id: impl Fn(usize) -> Option<CandId> + 'a,
) -> impl Iterator<Item = (CandId, CandId)> + 'a {
    (1..mentions.len())
        .filter(|&i| mentions[i - 1].end == mentions[i].start)
        .filter_map(move |i| Some((id(i - 1)?, id(i)?)))
}

impl AdjacencyLedger {
    /// Count every adjacent pair among `mentions`, where `id(i)` names
    /// the candidate of `mentions[i]`.
    pub fn add(&mut self, mentions: &[Span], id: impl Fn(usize) -> Option<CandId>) {
        for pair in touching(mentions, id) {
            *self.counts.entry(pair).or_insert(0) += 1;
        }
    }

    /// Uncount every adjacent pair among `mentions`, as [`add`] counted
    /// them. Callers only uncount what they counted; the apply steps that
    /// call this must not fail, so a pair that is missing anyway is
    /// skipped.
    ///
    /// [`add`]: AdjacencyLedger::add
    pub fn remove(&mut self, mentions: &[Span], id: impl Fn(usize) -> Option<CandId>) {
        for pair in touching(mentions, id) {
            if let Some(n) = self.counts.get_mut(&pair) {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(&pair);
                }
            }
        }
    }

    /// Count the adjacent pairs of a record's stored `global_mentions`,
    /// naming each through the CTrie.
    pub fn add_record(&mut self, rec: &TweetRecord, ctrie: &CTrie) {
        let m = &rec.global_mentions;
        self.add(m, |i| ctrie.cand_of(rec.syms_of(&m[i])));
    }

    /// Uncount the adjacent pairs of a record's stored `global_mentions`.
    pub fn remove_record(&mut self, rec: &TweetRecord, ctrie: &CTrie) {
        let m = &rec.global_mentions;
        self.remove(m, |i| ctrie.cand_of(rec.syms_of(&m[i])));
    }

    /// Drop every pair that names one of the pruned candidates `ids`
    /// (sorted ascending).
    pub fn forget(&mut self, ids: &[CandId]) {
        let gone = |id: &CandId| ids.binary_search(id).is_ok();
        self.counts.retain(|(a, b), _| !gone(a) && !gone(b));
    }

    /// `(left, right, count)` for every pair counted at least `min`
    /// times, in id order.
    pub fn at_least(&self, min: u64) -> Vec<(CandId, CandId, u64)> {
        let mut pairs: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &n)| n >= min)
            .map(|(&(a, b), &n)| (a, b, n))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Estimated heap bytes of the table, from its capacity in O(1): an
    /// entry plus one control byte per slot.
    pub fn resident_bytes(&self) -> usize {
        self.counts.capacity() * (std::mem::size_of::<((CandId, CandId), u64)>() + 1)
    }

    /// Add `n` to the pair's count (checkpoint decoding and migration).
    pub(crate) fn add_count(&mut self, pair: (CandId, CandId), n: u64) {
        if n > 0 {
            *self.counts.entry(pair).or_insert(0) += n;
        }
    }
}

/// Encodes as `[[left, right, count], ...]` in id order.
impl Serialize for AdjacencyLedger {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        ser::write_seq(self.at_least(1), out);
    }
}

impl Deserialize for AdjacencyLedger {
    fn from_value(v: &Value) -> Result<AdjacencyLedger, DeError> {
        let mut ledger = AdjacencyLedger::default();
        for (a, b, n) in Vec::<(CandId, CandId, u64)>::from_value(v)? {
            ledger.add_count((a, b), n);
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
        let ids = [1, 2, 3, 4];
        // 1|2|3 touch; 3 and 4 have a gap.
        let m = spans(&[(0, 1), (1, 3), (3, 4), (5, 6)]);
        let mut l = AdjacencyLedger::default();
        l.add(&m, |i| Some(ids[i]));
        l.add(&m[..2], |i| Some(ids[i]));
        assert_eq!(l.at_least(1), vec![(1, 2, 2), (2, 3, 1)]);
        assert_eq!(l.at_least(2), vec![(1, 2, 2)]);
        // An unnamed side skips the pair.
        l.add(&m, |i| (i != 1).then_some(ids[i]));
        assert_eq!(l.at_least(1), vec![(1, 2, 2), (2, 3, 1)]);
        l.remove(&m, |i| Some(ids[i]));
        assert_eq!(l.at_least(1), vec![(1, 2, 1)]);
        l.remove(&m[..2], |i| Some(ids[i]));
        assert_eq!(l, AdjacencyLedger::default(), "zero counts are removed");
    }

    #[test]
    fn forget_drops_every_pair_of_the_pruned_ids() {
        let mut l = AdjacencyLedger::default();
        let m = spans(&[(0, 1), (1, 2)]);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            l.add(&m, |i| Some([a, b][i]));
        }
        l.forget(&[1, 4]);
        assert_eq!(l.at_least(1), vec![(2, 0, 1)]);
    }

    #[test]
    fn checkpoint_text_does_not_depend_on_the_hasher_seed() {
        use emd_text::idhash::IdHash;
        let m = spans(&[(0, 1), (1, 2)]);
        let build = |seed| {
            let mut l = AdjacencyLedger {
                counts: IdHashMap::with_hasher(IdHash::with_seed(seed)),
            };
            for a in 0..60u32 {
                for b in 0..(a % 4) {
                    l.add(&m, |i| Some([a, b * 7][i]));
                }
            }
            l.remove(&m, |i| Some([5, 0][i]));
            l.forget(&[3, 14]);
            l
        };
        let (l1, l2) = (build(1), build(2));
        let order = |l: &AdjacencyLedger| l.counts.keys().copied().collect::<Vec<_>>();
        assert_ne!(order(&l1), order(&l2), "the seeds order the tables apart");
        assert_eq!(l1, l2);
        let json = serde_json::to_string(&l1).unwrap();
        assert_eq!(json, serde_json::to_string(&l2).unwrap());
        assert_eq!(serde_json::from_str::<AdjacencyLedger>(&json).unwrap(), l1);
    }

    #[test]
    fn reads_and_round_trips_in_id_order() {
        let mut l = AdjacencyLedger::default();
        let m = spans(&[(0, 1), (1, 2)]);
        for (a, b) in [(9, 0), (0, 9), (0, 1)] {
            l.add(&m, |i| Some([a, b][i]));
        }
        let pairs: Vec<_> = l.at_least(1).into_iter().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 9), (9, 0)]);
        let json = serde_json::to_string(&l).unwrap();
        assert_eq!(json, "[[0,1,1],[0,9,1],[9,0,1]]");
        assert_eq!(serde_json::from_str::<AdjacencyLedger>(&json).unwrap(), l);
    }
}
