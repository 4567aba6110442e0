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
//! A record keeps counters, not mentions. Where a mention occurs is a fact
//! of its sentence, and the sentence record owns it
//! ([`crate::tweetbase::TweetRecord::global_mentions`] and
//! [`crate::tweetbase::TweetRecord::retired`]); the candidate only counts
//! what it has pooled. Because a `(sentence, span)` pair fixes its key —
//! the span's folded surface — "has this candidate pooled that mention?"
//! is answered by the sentence record, and the scan asks it there before
//! pooling. Counts stay stream-cumulative when the window evicts
//! sentences.
//!
//! Records are held as `Arc<CandidateRecord>` and written through
//! `Arc::make_mut`, so a clone of the store (the supervisor's per-batch
//! snapshot) shares every record until the batch writes to it; sweeps
//! read first and unshare only the records they change.

use crate::classifier::CandidateLabel;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-candidate record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Lower-cased space-joined key.
    pub key: String,
    /// Lower-cased tokens of the candidate.
    pub tokens: Vec<String>,
    /// Whether [`CandidateRecord::add_mention`] retains the individual
    /// per-mention embeddings (needed for max pooling and training
    /// harvests; released in windowed mean-pooling mode, where only the
    /// running sum is consulted).
    store_local: bool,
    /// Running sum of local candidate embeddings.
    emb_sum: Vec<f32>,
    /// Number of pooled embeddings — one per mention, so also the
    /// mention frequency.
    emb_count: usize,
    /// How many of the pooled mentions the Local EMD system found itself.
    n_local: usize,
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
            store_local,
            emb_sum: vec![0.0; dim],
            emb_count: 0,
            n_local: 0,
            local_flat: Vec::new(),
            label: CandidateLabel::Pending,
            score: None,
            degraded: false,
        }
    }

    /// Count one new mention and pool its local embedding into the global
    /// embedding. The caller has checked that the sentence record has not
    /// pooled this `(sentence, span)` pair already.
    pub fn add_mention(&mut self, local: &[f32], locally_detected: bool) {
        assert_eq!(local.len(), self.emb_sum.len(), "embedding dim mismatch");
        for (s, &v) in self.emb_sum.iter_mut().zip(local) {
            *s += v;
        }
        self.emb_count += 1;
        self.n_local += usize::from(locally_detected);
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
        let n = self.emb_count as f32;
        for (o, &s) in out.iter_mut().zip(&self.emb_sum) {
            *o = s / n;
        }
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
                            for (o, &v) in out.iter_mut().zip(emb) {
                                *o = o.max(v);
                            }
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
    /// Every mention pools exactly one embedding, so this is the pooled
    /// count.
    pub fn frequency(&self) -> usize {
        self.emb_count
    }

    /// How many of the candidate's mentions (cumulative, including
    /// evicted ones) the Local EMD system found itself. Feeds the
    /// trust-local emission fallback for degraded candidates.
    pub fn locally_detected_frequency(&self) -> usize {
        self.n_local
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

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Get-or-create a record for the (already lower-cased) key. Copies
    /// an existing record first if a clone of the store still shares it.
    pub fn entry(&mut self, key: &str) -> &mut CandidateRecord {
        let i = self.ensure(key);
        Arc::make_mut(&mut self.records[i])
    }

    /// Discovery-order position of the (already lower-cased) key,
    /// appending a fresh record if it is new. An existing record is not
    /// written, so a clone of the store keeps sharing it.
    pub fn ensure(&mut self, key: &str) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.records.len();
        self.index.insert(key.to_string(), i);
        self.records.push(Arc::new(CandidateRecord::new(
            key.to_string(),
            self.dim,
            self.store_local,
        )));
        i
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

    /// Estimated resident heap bytes: record blocks, keys, and the pooled
    /// and per-mention embeddings (the dominant term for deep local
    /// systems). Records shared with a clone are counted in full. An
    /// estimate for gauges, not allocator-exact.
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
        r.add_mention(&[1.0, 0.0], true);
        r.add_mention(&[0.0, 1.0], false);
        r.add_mention(&[2.0, 2.0], false);
        assert_eq!(r.global_embedding(), vec![1.0, 1.0]);
        assert_eq!(r.n_pooled(), 3);
    }

    #[test]
    fn max_pooling() {
        use crate::config::Pooling;
        let mut cb = CandidateBase::new(2);
        let r = cb.entry("covid");
        r.add_mention(&[1.0, 0.0], true);
        r.add_mention(&[0.0, 2.0], true);
        assert_eq!(r.pooled_embedding(Pooling::Max), vec![1.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Mean), vec![0.5, 1.0]);
    }

    #[test]
    fn empty_pool_is_zeros() {
        let mut cb = CandidateBase::new(4);
        let r = cb.entry("x");
        assert_eq!(r.global_embedding(), vec![0.0; 4]);
        assert_eq!(r.frequency(), 0);
    }

    #[test]
    fn one_call_counts_the_mention_and_pools_it() {
        let mut cb = CandidateBase::new(1);
        let r = cb.entry("italy");
        for i in 0..6 {
            r.add_mention(&[i as f32], i % 2 == 0);
        }
        assert_eq!(r.frequency(), 6);
        assert_eq!(r.n_pooled(), 6);
        assert_eq!(r.locally_detected_frequency(), 3);
        assert_eq!(r.global_embedding(), vec![2.5]);
    }

    #[test]
    #[should_panic(expected = "embedding dim mismatch")]
    fn wrong_dim_panics() {
        let mut cb = CandidateBase::new(3);
        cb.entry("x").add_mention(&[1.0], true);
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
        cb.get_mut("c").unwrap().add_mention(&[1.0], false);
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
    fn clones_share_records_until_a_mention_is_pooled() {
        let mut cb = CandidateBase::new(1);
        for key in ["italy", "covid"] {
            cb.entry(key).add_mention(&[1.0], true);
        }
        let snap = cb.clone();
        assert!(Arc::ptr_eq(&cb.records[0], &snap.records[0]));
        // Looking a known key up (a rescan meeting a mention its sentence
        // already pooled) copies nothing.
        assert_eq!(cb.ensure("italy"), 0);
        assert!(Arc::ptr_eq(&cb.records[0], &snap.records[0]));
        // A new key is appended; the shared records stay shared.
        assert_eq!(cb.ensure("new key"), 2);
        assert_eq!(cb.get("new key").unwrap().frequency(), 0);
        assert!(Arc::ptr_eq(&cb.records[1], &snap.records[1]));
        // Pooling copies the record the snapshot holds, and only it.
        cb.entry("covid").add_mention(&[1.0], false);
        assert!(!Arc::ptr_eq(&cb.records[1], &snap.records[1]));
        assert!(Arc::ptr_eq(&cb.records[0], &snap.records[0]));
        assert_eq!(snap.get("covid").unwrap().frequency(), 1);
        assert_eq!(cb.get("covid").unwrap().frequency(), 2);
        assert_eq!(cb.get("covid").unwrap().locally_detected_frequency(), 1);
        // A record already flagged degraded is not copied to flag it again.
        cb.mark_degraded(0);
        let snap = cb.clone();
        cb.mark_degraded(0);
        assert!(Arc::ptr_eq(&cb.records[0], &snap.records[0]));
    }

    #[test]
    fn store_local_off_skips_per_mention_embeddings() {
        let mut cb = CandidateBase::new(2);
        cb.set_store_local(false);
        let r = cb.entry("covid");
        r.add_mention(&[1.0, 0.0], true);
        r.add_mention(&[0.0, 1.0], true);
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
            r.add_mention(&[0.5; 8], true);
        }
        let before = cb.resident_bytes();
        cb.prune_retain(|r| r.key.ends_with('1'));
        assert!(
            cb.resident_bytes() < before,
            "pruning must shrink resident bytes"
        );
    }
}
