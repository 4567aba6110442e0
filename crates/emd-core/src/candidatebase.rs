//! CandidateBase: per-candidate records with incrementally pooled global
//! embeddings.
//!
//! A candidate is keyed by its lower-cased space-joined token string. Every
//! mention found in the stream contributes its *local candidate embedding*
//! to a running sum; the **global candidate embedding** is the mean over
//! all contributions — "a consensus representation over all contextual
//! possibilities in which a candidate appears in the stream" (§V-C). The
//! pooling is incremental, so new mentions arriving in later batches simply
//! extend the pool.
//!
//! Records are held as `Arc<CandidateRecord>` and written through
//! `Arc::make_mut`, so a clone of the store (the supervisor's per-batch
//! snapshot) shares every record until the batch writes to it; sweeps
//! read first and unshare only the records they change.

use crate::classifier::CandidateLabel;
use emd_text::token::{SentenceId, Span};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A single located mention of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MentionRef {
    /// Sentence the mention occurs in.
    pub sid: SentenceId,
    /// Token span inside that sentence.
    pub span: Span,
    /// Whether the Local EMD system itself found this mention (as opposed
    /// to the global rescan recovering it).
    pub locally_detected: bool,
}

/// Per-candidate record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Lower-cased space-joined key.
    pub key: String,
    /// Lower-cased tokens of the candidate.
    pub tokens: Vec<String>,
    /// All located mentions, in discovery order.
    pub mentions: Vec<MentionRef>,
    /// `(sentence, span)` pairs already in `mentions`, for O(1) dedup when
    /// overlapping rescans revisit a sentence.
    seen: HashSet<(SentenceId, Span)>,
    /// Mentions whose sentences left the sliding window: the refs are
    /// released but the count is folded into [`CandidateRecord::frequency`]
    /// so every frequency-based decision stays cumulative.
    evicted_mentions: usize,
    /// How many of the evicted mentions were locally detected (keeps the
    /// trust-local emission ratio cumulative too).
    evicted_locally_detected: usize,
    /// Whether [`CandidateRecord::add_embedding`] retains the individual
    /// per-mention embeddings (needed for max pooling and training
    /// harvests; released in windowed mean-pooling mode, where only the
    /// running sum is consulted).
    store_local: bool,
    /// Running sum of local candidate embeddings.
    emb_sum: Vec<f32>,
    /// Number of pooled embeddings.
    emb_count: usize,
    /// The individual per-mention local embeddings, flattened row-major
    /// (`n × dim`, one contiguous block instead of a heap allocation per
    /// mention — iterate with [`CandidateRecord::local_rows`]). Kept so
    /// training can expose the classifier to the single-mention regime,
    /// and for pooled variants in ablations.
    local_flat: Vec<f32>,
    /// Classifier outcome (updated as the stream progresses).
    pub label: CandidateLabel,
    /// Last classifier probability, if scored.
    pub score: Option<f32>,
    /// Degraded-mode flag: the phrase embedder or classifier failed
    /// persistently for this candidate, so its classifier verdict is
    /// unreliable. Emission falls back to trusting only the Local EMD
    /// system's own detections for this candidate (LocalOnly behaviour).
    pub degraded: bool,
}

impl CandidateRecord {
    fn new(key: String, dim: usize, store_local: bool) -> CandidateRecord {
        let tokens = key.split(' ').map(|s| s.to_string()).collect();
        CandidateRecord {
            key,
            tokens,
            mentions: Vec::new(),
            seen: HashSet::new(),
            evicted_mentions: 0,
            evicted_locally_detected: 0,
            store_local,
            emb_sum: vec![0.0; dim],
            emb_count: 0,
            local_flat: Vec::new(),
            label: CandidateLabel::Pending,
            score: None,
            degraded: false,
        }
    }

    /// Record a mention unless an identical `(sentence, span)` pair is
    /// already present. Returns `true` when the mention was new. This is
    /// the dedup gate the rescan relies on: a sentence revisited because
    /// two new candidates both touch it must not double-count mentions.
    pub fn try_add_mention(&mut self, mref: MentionRef) -> bool {
        if self.seen.insert((mref.sid, mref.span)) {
            self.mentions.push(mref);
            true
        } else {
            false
        }
    }

    /// Pool one local embedding into the global embedding.
    pub fn add_embedding(&mut self, local: &[f32]) {
        assert_eq!(local.len(), self.emb_sum.len(), "embedding dim mismatch");
        emd_simd::add_assign(&mut self.emb_sum, local);
        self.emb_count += 1;
        if self.store_local {
            self.local_flat.extend_from_slice(local);
        }
    }

    /// The retained per-mention local embeddings as `dim`-wide rows, in
    /// pooling order (empty in windowed mean-pooling mode).
    pub fn local_rows(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        self.local_flat.chunks_exact(self.emb_sum.len().max(1))
    }

    /// The pooled global candidate embedding (mean), or zeros if no
    /// embeddings were contributed yet.
    pub fn global_embedding(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.emb_sum.len()];
        self.global_embedding_into(&mut out);
        out
    }

    /// [`CandidateRecord::global_embedding`] into a caller-owned buffer
    /// (resized to `dim`) — the allocation-free classification hot path.
    pub fn global_embedding_into(&self, out: &mut Vec<f32>) {
        out.resize(self.emb_sum.len(), 0.0);
        if self.emb_count == 0 {
            out.copy_from_slice(&self.emb_sum);
            return;
        }
        // Division (not reciprocal-multiply): the historical op sequence
        // of this path, preserved for bit-identity.
        emd_simd::div_into(out, &self.emb_sum, self.emb_count as f32);
    }

    /// Global embedding under an explicit pooling mode (ablation support).
    pub fn pooled_embedding(&self, pooling: crate::config::Pooling) -> Vec<f32> {
        let mut out = Vec::new();
        self.pooled_embedding_into(pooling, &mut out);
        out
    }

    /// [`CandidateRecord::pooled_embedding`] into a caller-owned buffer.
    pub fn pooled_embedding_into(&self, pooling: crate::config::Pooling, out: &mut Vec<f32>) {
        match pooling {
            crate::config::Pooling::Mean => self.global_embedding_into(out),
            crate::config::Pooling::Max => {
                let mut rows = self.local_rows();
                match rows.next() {
                    None => {
                        out.clear();
                        out.resize(self.emb_sum.len(), 0.0);
                    }
                    Some(first) => {
                        out.clear();
                        out.extend_from_slice(first);
                        for emb in rows {
                            emd_simd::max_assign(out, emb);
                        }
                    }
                }
            }
        }
    }

    /// Number of pooled embeddings (= mentions with embeddings).
    pub fn n_pooled(&self) -> usize {
        self.emb_count
    }

    /// Mention frequency — cumulative over the whole stream, including
    /// mentions whose sentences have since been evicted from the window.
    pub fn frequency(&self) -> usize {
        self.mentions.len() + self.evicted_mentions
    }

    /// How many of the candidate's mentions (cumulative, including
    /// evicted ones) the Local EMD system found itself. Feeds the
    /// trust-local emission fallback for degraded candidates.
    pub fn locally_detected_frequency(&self) -> usize {
        self.mentions.iter().filter(|m| m.locally_detected).count() + self.evicted_locally_detected
    }

    /// Release the per-mention bookkeeping of every mention whose sentence
    /// fails `is_live`: drop its [`MentionRef`]s and dedup entries while
    /// folding the counts into the cumulative totals. The pooled embedding
    /// sum is untouched — evicted mentions keep contributing to the global
    /// consensus embedding (§V-C); only their O(mentions) bookkeeping is
    /// reclaimed. Returns the number of refs released.
    pub fn release_dead<F: FnMut(SentenceId) -> bool>(&mut self, mut is_live: F) -> usize {
        let mut dropped = 0usize;
        let mut dropped_local = 0usize;
        self.mentions.retain(|m| {
            if is_live(m.sid) {
                true
            } else {
                dropped += 1;
                if m.locally_detected {
                    dropped_local += 1;
                }
                false
            }
        });
        if dropped == 0 {
            return 0;
        }
        self.evicted_mentions += dropped;
        self.evicted_locally_detected += dropped_local;
        self.seen.retain(|&(sid, _)| is_live(sid));
        if self.mentions.capacity() > 2 * self.mentions.len() + 4 {
            self.mentions.shrink_to_fit();
        }
        self.seen.shrink_to_fit();
        dropped
    }

    /// Number of tokens in the candidate (the paper's `+1` length feature).
    pub fn token_len(&self) -> usize {
        self.tokens.len()
    }
}

/// The stream-wide candidate store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateBase {
    /// Records in discovery order, shared with clones until written.
    records: Vec<Arc<CandidateRecord>>,
    index: HashMap<String, usize>,
    dim: usize,
    store_local: bool,
}

impl CandidateBase {
    /// New store for embeddings of dimension `dim`.
    pub fn new(dim: usize) -> CandidateBase {
        CandidateBase {
            records: Vec::new(),
            index: HashMap::new(),
            dim,
            store_local: true,
        }
    }

    /// Control whether new records retain individual per-mention
    /// embeddings (on by default). Windowed mean-pooling pipelines turn
    /// this off: only the running sum is ever consulted there, and the
    /// per-mention list would grow with stream length, not window size.
    pub fn set_store_local(&mut self, on: bool) {
        self.store_local = on;
    }

    /// Release per-mention bookkeeping for every mention whose sentence
    /// fails `is_live`, across all records (see
    /// [`CandidateRecord::release_dead`]). Only records holding a dead ref
    /// are written. Returns total refs released.
    pub fn release_dead<F: FnMut(SentenceId) -> bool>(&mut self, mut is_live: F) -> usize {
        let mut released = 0;
        for r in &mut self.records {
            if r.mentions.iter().all(|m| is_live(m.sid)) {
                continue;
            }
            released += Arc::make_mut(r).release_dead(&mut is_live);
        }
        released
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Get-or-create a record for the (already lower-cased) key. Copies
    /// an existing record first if a clone of the store still shares it.
    pub fn entry(&mut self, key: &str) -> &mut CandidateRecord {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => self.push_new(key),
        };
        Arc::make_mut(&mut self.records[i])
    }

    /// Append a fresh record for `key`, returning its position.
    fn push_new(&mut self, key: &str) -> usize {
        let i = self.records.len();
        self.index.insert(key.to_string(), i);
        self.records.push(Arc::new(CandidateRecord::new(
            key.to_string(),
            self.dim,
            self.store_local,
        )));
        i
    }

    /// Record a mention of the (already lower-cased) key, creating the
    /// candidate if it is new. Returns the record when the mention was new
    /// — the caller pools its embedding — and `None` for a `(sentence,
    /// span)` pair the candidate already holds (a settle or closing rescan
    /// revisiting a sentence), which is detected without unsharing the
    /// record.
    pub fn add_mention(&mut self, key: &str, mref: MentionRef) -> Option<&mut CandidateRecord> {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => self.push_new(key),
        };
        // Only a shared record is probed before the write; an unshared
        // one lets `try_add_mention` do the dedup in one hash.
        let shared = Arc::get_mut(&mut self.records[i]).is_none();
        if shared && self.records[i].seen.contains(&(mref.sid, mref.span)) {
            return None;
        }
        let rec = Arc::make_mut(&mut self.records[i]);
        rec.try_add_mention(mref).then_some(rec)
    }

    /// Lookup by key.
    pub fn get(&self, key: &str) -> Option<&CandidateRecord> {
        self.index.get(key).map(|&i| &*self.records[i])
    }

    /// Mutable lookup by key (copy-on-write, like
    /// [`CandidateBase::entry`]).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut CandidateRecord> {
        let i = *self.index.get(key)?;
        Some(self.get_mut_by_index(i))
    }

    /// Record by discovery-order position (`i < len()`).
    pub fn get_by_index(&self, i: usize) -> &CandidateRecord {
        &self.records[i]
    }

    /// Mutable record by discovery-order position (copy-on-write, like
    /// [`CandidateBase::entry`]).
    pub fn get_mut_by_index(&mut self, i: usize) -> &mut CandidateRecord {
        Arc::make_mut(&mut self.records[i])
    }

    /// Flag record `i` degraded. A record that already is stays
    /// untouched, so a snapshot sharing it is not copied.
    pub fn mark_degraded(&mut self, i: usize) {
        if !self.records[i].degraded {
            Arc::make_mut(&mut self.records[i]).degraded = true;
        }
    }

    /// All records in discovery order.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateRecord> {
        self.records.iter().map(|r| &**r)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop every record failing `keep`, preserving discovery order of the
    /// survivors and rebuilding the key index. Returns the pruned records
    /// (the caller traces them and removes their CTrie paths). A candidate
    /// pruned here and re-seen later is simply rediscovered as a fresh
    /// record — the paper's Figure 7 argument: a low-frequency candidate
    /// whose mentions have all left the window no longer contributes to
    /// global-embedding quality, so its pool can be rebuilt from scratch.
    pub fn prune_retain<F: FnMut(&CandidateRecord) -> bool>(
        &mut self,
        mut keep: F,
    ) -> Vec<Arc<CandidateRecord>> {
        // Pruning fires every window enforcement, but on most batches
        // nothing is prunable — scan for the first casualty before
        // committing to the record sweep, so the common case is one
        // predicate pass with no moves, no allocation, and no index
        // rebuild. `keep` runs exactly once per record in discovery
        // order either way.
        let first_pruned = match self.records.iter().position(|r| !keep(r)) {
            None => return Vec::new(),
            Some(i) => i,
        };
        let mut pruned = Vec::new();
        let tail: Vec<Arc<CandidateRecord>> = self.records.drain(first_pruned..).collect();
        for (j, r) in tail.into_iter().enumerate() {
            // `position` already judged the first tail record prunable.
            if j > 0 && keep(&r) {
                self.records.push(r);
            } else {
                pruned.push(r);
            }
        }
        self.index.clear();
        for (i, r) in self.records.iter().enumerate() {
            self.index.insert(r.key.clone(), i);
        }
        pruned
    }

    /// Estimated resident heap bytes: record blocks, keys, mention lists,
    /// dedup sets, and the pooled + per-mention embeddings (the dominant
    /// term for deep local systems). Records shared with a clone are
    /// counted in full. An estimate for gauges, not allocator-exact.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.records.capacity() * size_of::<Arc<CandidateRecord>>();
        for r in &self.records {
            // The shared block: the record plus its two reference counts.
            total += size_of::<CandidateRecord>() + 2 * size_of::<usize>();
            total += r.key.len();
            total += r
                .tokens
                .iter()
                .map(|t| t.len() + size_of::<String>())
                .sum::<usize>();
            total += r.mentions.capacity() * size_of::<MentionRef>();
            total += r.seen.len() * size_of::<(SentenceId, Span)>();
            total += r.emb_sum.capacity() * size_of::<f32>();
            total += r.local_flat.capacity() * size_of::<f32>();
        }
        for key in self.index.keys() {
            total += key.len() + size_of::<usize>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_creates_once() {
        let mut cb = CandidateBase::new(3);
        cb.entry("andy beshear");
        cb.entry("andy beshear");
        cb.entry("italy");
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.get("andy beshear").unwrap().token_len(), 2);
    }

    #[test]
    fn incremental_pooling_is_mean() {
        let mut cb = CandidateBase::new(2);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 1.0]);
        r.add_embedding(&[2.0, 2.0]);
        assert_eq!(r.global_embedding(), vec![1.0, 1.0]);
        assert_eq!(r.n_pooled(), 3);
    }

    #[test]
    fn max_pooling() {
        use crate::config::Pooling;
        let mut cb = CandidateBase::new(2);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Max), vec![1.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Mean), vec![0.5, 1.0]);
    }

    #[test]
    fn empty_pool_is_zeros() {
        let mut cb = CandidateBase::new(4);
        let r = cb.entry("x");
        assert_eq!(r.global_embedding(), vec![0.0; 4]);
    }

    #[test]
    fn mentions_tracked() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        r.mentions.push(MentionRef {
            sid: SentenceId::new(1, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        });
        r.mentions.push(MentionRef {
            sid: SentenceId::new(2, 0),
            span: Span::new(3, 4),
            locally_detected: false,
        });
        assert_eq!(r.frequency(), 2);
        assert_eq!(r.mentions.iter().filter(|m| m.locally_detected).count(), 1);
    }

    #[test]
    fn try_add_mention_dedups() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        let a = MentionRef {
            sid: SentenceId::new(1, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        };
        let b = MentionRef {
            span: Span::new(3, 4),
            ..a
        };
        assert!(r.try_add_mention(a));
        assert!(r.try_add_mention(b));
        // Same (sid, span) again — even with a different provenance flag —
        // is a duplicate.
        assert!(!r.try_add_mention(MentionRef {
            locally_detected: false,
            ..a
        }));
        assert_eq!(r.frequency(), 2);
    }

    #[test]
    #[should_panic(expected = "embedding dim mismatch")]
    fn wrong_dim_panics() {
        let mut cb = CandidateBase::new(3);
        cb.entry("x").add_embedding(&[1.0]);
    }

    #[test]
    fn prune_retain_preserves_order_and_rebuilds_index() {
        let mut cb = CandidateBase::new(1);
        for key in ["a", "b", "c", "d"] {
            cb.entry(key);
        }
        let pruned = cb.prune_retain(|r| r.key != "b" && r.key != "d");
        assert_eq!(
            pruned.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "d"]
        );
        assert_eq!(
            cb.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
        assert_eq!(cb.len(), 2);
        assert!(cb.get("b").is_none());
        // The rebuilt index must point at the right survivors.
        cb.get_mut("c").unwrap().mentions.push(MentionRef {
            sid: SentenceId::new(9, 0),
            span: Span::new(0, 1),
            locally_detected: false,
        });
        assert_eq!(cb.get("c").unwrap().frequency(), 1);
        assert_eq!(cb.get("a").unwrap().frequency(), 0);
        // A pruned key re-enters as a fresh record at the tail.
        cb.entry("b");
        assert_eq!(cb.len(), 3);
        assert_eq!(cb.get("b").unwrap().frequency(), 0);
    }

    #[test]
    fn prune_retain_all_kept_is_noop() {
        let mut cb = CandidateBase::new(1);
        cb.entry("a");
        cb.entry("b");
        let pruned = cb.prune_retain(|_| true);
        assert!(pruned.is_empty());
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.get("a").unwrap().key, "a");
    }

    #[test]
    fn release_dead_folds_counts_and_keeps_frequency_cumulative() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        for i in 0..6u64 {
            assert!(r.try_add_mention(MentionRef {
                sid: SentenceId::new(i, 0),
                span: Span::new(0, 1),
                locally_detected: i % 2 == 0,
            }));
        }
        assert_eq!(r.frequency(), 6);
        assert_eq!(r.locally_detected_frequency(), 3);
        // Sentences 0..4 leave the window.
        let released = cb.release_dead(|sid| sid.tweet_id >= 4);
        assert_eq!(released, 4);
        let r = cb.get("italy").unwrap();
        assert_eq!(r.mentions.len(), 2, "only live refs remain");
        assert_eq!(r.frequency(), 6, "frequency stays cumulative");
        assert_eq!(r.locally_detected_frequency(), 3);
        // The dedup gate forgets released (sid, span) pairs: a re-used
        // sentence id would re-count, which is why quarantine permanence
        // (not this set) guards against id re-delivery.
        let r = cb.get_mut("italy").unwrap();
        assert!(r.try_add_mention(MentionRef {
            sid: SentenceId::new(0, 0),
            span: Span::new(0, 1),
            locally_detected: false,
        }));
        assert_eq!(r.frequency(), 7);
    }

    #[test]
    fn clones_share_records_and_sweeps_unshare_only_what_they_change() {
        let mut cb = CandidateBase::new(1);
        for (t, key) in ["italy", "covid"].into_iter().enumerate() {
            cb.entry(key).try_add_mention(MentionRef {
                sid: SentenceId::new(t as u64, 0),
                span: Span::new(0, 1),
                locally_detected: true,
            });
        }
        let snap = cb.clone();
        assert!(Arc::ptr_eq(&cb.records[0], &snap.records[0]));
        // Only "italy" (sentence 0) holds a dead ref.
        assert_eq!(cb.release_dead(|sid| sid.tweet_id != 0), 1);
        assert!(!Arc::ptr_eq(&cb.records[0], &snap.records[0]));
        assert!(Arc::ptr_eq(&cb.records[1], &snap.records[1]));
        assert_eq!(snap.get("italy").unwrap().mentions.len(), 1);
        assert_eq!(cb.get("italy").unwrap().mentions.len(), 0);
        // Writes through the key copy the record the snapshot holds.
        cb.entry("covid").add_embedding(&[1.0]);
        assert_eq!(snap.get("covid").unwrap().n_pooled(), 0);
        assert_eq!(cb.get("covid").unwrap().n_pooled(), 1);
        // A mention the candidate already holds is refused without a copy.
        let snap = cb.clone();
        let known = cb.get("covid").unwrap().mentions[0];
        assert!(cb.add_mention("covid", known).is_none());
        assert!(Arc::ptr_eq(&cb.records[1], &snap.records[1]));
        let fresh = MentionRef {
            sid: SentenceId::new(9, 0),
            ..known
        };
        assert!(cb.add_mention("covid", fresh).is_some());
        assert!(cb.add_mention("new key", fresh).is_some());
        assert_eq!(cb.get("covid").unwrap().frequency(), 2);
        assert_eq!(cb.get("new key").unwrap().frequency(), 1);
    }

    #[test]
    fn release_dead_with_all_live_is_noop() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("covid");
        r.try_add_mention(MentionRef {
            sid: SentenceId::new(0, 0),
            span: Span::new(0, 1),
            locally_detected: true,
        });
        assert_eq!(cb.release_dead(|_| true), 0);
        assert_eq!(cb.get("covid").unwrap().mentions.len(), 1);
    }

    #[test]
    fn store_local_off_skips_per_mention_embeddings() {
        let mut cb = CandidateBase::new(2);
        cb.set_store_local(false);
        let r = cb.entry("covid");
        r.add_embedding(&[1.0, 0.0]);
        r.add_embedding(&[0.0, 1.0]);
        // The pooled mean is unaffected; only the per-mention list is
        // elided.
        assert_eq!(r.global_embedding(), vec![0.5, 0.5]);
        assert_eq!(r.n_pooled(), 2);
        assert_eq!(r.local_rows().len(), 0);
    }

    #[test]
    fn resident_bytes_shrinks_on_prune() {
        let mut cb = CandidateBase::new(8);
        for i in 0..16 {
            let key = format!("candidate number {i}");
            let r = cb.entry(&key);
            r.add_embedding(&[0.5; 8]);
        }
        let before = cb.resident_bytes();
        cb.prune_retain(|r| r.key.ends_with('1'));
        assert!(
            cb.resident_bytes() < before,
            "pruning must shrink resident bytes"
        );
    }
}
