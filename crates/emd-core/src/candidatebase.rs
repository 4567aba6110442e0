//! CandidateBase: per-candidate records with incrementally pooled global
//! embeddings.
//!
//! A candidate is named by its [`CandId`], its slot here, which its CTrie
//! terminal holds from the first scan that extracts it until it is pruned;
//! the record keeps the folded token symbols that spell it. Every
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
//! what it has pooled. Because a `(sentence, span)` pair fixes its
//! candidate — the span's folded symbols — "has this candidate pooled that mention?"
//! is answered by the sentence record, and the scan asks it there before
//! pooling. Counts stay stream-cumulative when the window evicts
//! sentences.
//!
//! Records are held as `Arc<CandidateRecord>` and written through
//! `Arc::make_mut`, so a clone of the store (the supervisor's per-batch
//! snapshot) shares every record until the batch writes to it; sweeps
//! read first and unshare only the records they change.

use crate::classifier::CandidateLabel;
use emd_text::intern::Sym;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A candidate's id: its slot in the [`CandidateBase`], held by its CTrie
/// terminal. A pruned candidate's id is reused by a later discovery.
pub type CandId = u32;

/// Per-candidate record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Folded token symbols of the candidate: its CTrie path.
    pub syms: Vec<Sym>,
    /// Whether [`CandidateRecord::add_mention`] retains the individual
    /// per-mention embeddings (needed for max pooling and training
    /// harvests; mean pooling consults only the running sum).
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
    fn new(syms: &[Sym], dim: usize, store_local: bool) -> CandidateRecord {
        CandidateRecord {
            syms: syms.to_vec(),
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
    /// pooling order (empty unless the store retains them).
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
        self.syms.len()
    }
}

/// The stream-wide candidate store: a slot vector indexed by [`CandId`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateBase {
    /// Records by id, shared with clones until written; `None` marks a
    /// pruned id awaiting reuse.
    records: Vec<Option<Arc<CandidateRecord>>>,
    /// Pruned ids; the next discovery takes the last one.
    free: Vec<CandId>,
    dim: usize,
    store_local: bool,
}

impl CandidateBase {
    /// New store for embeddings of dimension `dim`.
    pub fn new(dim: usize) -> CandidateBase {
        CandidateBase {
            records: Vec::new(),
            free: Vec::new(),
            dim,
            store_local: true,
        }
    }

    /// Control whether new records retain individual per-mention
    /// embeddings (on by default). Mean-pooling pipelines turn this off:
    /// only the running sum is ever consulted there, and the per-mention
    /// rows would grow with stream length, not window size.
    pub fn set_store_local(&mut self, on: bool) {
        self.store_local = on;
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Create a fresh record for the candidate spelled by `syms`, in a
    /// pruned id's slot when there is one, and return its id.
    pub fn discover(&mut self, syms: &[Sym]) -> CandId {
        let id = self.free.pop().unwrap_or_else(|| {
            self.records.push(None);
            (self.records.len() - 1) as CandId
        });
        let rec = CandidateRecord::new(syms, self.dim, self.store_local);
        self.records[id as usize] = Some(Arc::new(rec));
        id
    }

    /// The live record `id` names, if any.
    pub fn get(&self, id: CandId) -> Option<&CandidateRecord> {
        self.records.get(id as usize)?.as_deref()
    }

    /// The live record `id` names, copied first if a clone of the store
    /// still shares it. Panics on an id that names no record.
    pub fn get_mut(&mut self, id: CandId) -> &mut CandidateRecord {
        Arc::make_mut(
            self.records[id as usize]
                .as_mut()
                .expect("live candidate id"),
        )
    }

    /// Flag record `id` degraded. A record that already is stays
    /// untouched, so a snapshot sharing it is not copied.
    pub fn mark_degraded(&mut self, id: CandId) {
        if self.get(id).is_some_and(|r| !r.degraded) {
            self.get_mut(id).degraded = true;
        }
    }

    /// Every slot in id order, `None` where an id is free.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = Option<&CandidateRecord>> {
        self.records.iter().map(|r| r.as_deref())
    }

    /// Live records with their ids, in id order.
    pub fn entries(&self) -> impl Iterator<Item = (CandId, &CandidateRecord)> {
        self.slots()
            .enumerate()
            .filter_map(|(i, r)| Some((i as CandId, r?)))
    }

    /// Live records in id order: discovery order until a prune frees an
    /// id for reuse.
    pub fn iter(&self) -> impl Iterator<Item = &CandidateRecord> {
        self.slots().flatten()
    }

    /// Number of live candidates.
    pub fn len(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every record failing `keep` (asked once per live record, in
    /// id order), freeing its id. Returns the pruned records with their
    /// ids (the caller traces them and removes their CTrie paths). A
    /// candidate pruned here and re-seen later is simply rediscovered as a
    /// fresh record — the paper's Figure 7 argument: a low-frequency
    /// candidate whose mentions have all left the window no longer
    /// contributes to global-embedding quality, so its pool can be rebuilt
    /// from scratch.
    pub fn prune_retain<F: FnMut(&CandidateRecord) -> bool>(
        &mut self,
        mut keep: F,
    ) -> Vec<(CandId, Arc<CandidateRecord>)> {
        let mut pruned = Vec::new();
        for (id, slot) in self.records.iter_mut().enumerate() {
            if slot.as_deref().is_some_and(|r| !keep(r)) {
                pruned.extend(slot.take().map(|r| (id as CandId, r)));
                self.free.push(id as CandId);
            }
        }
        pruned
    }

    /// Estimated resident heap bytes: record blocks, symbols, and the
    /// pooled and per-mention embeddings (the dominant term for deep local
    /// systems). Records shared with a clone are counted in full. An
    /// estimate for gauges, not allocator-exact.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.records.capacity() * size_of::<Option<Arc<CandidateRecord>>>()
            + self.free.capacity() * size_of::<CandId>();
        for r in self.iter() {
            // The shared block: the record plus its two reference counts.
            total += size_of::<CandidateRecord>() + 2 * size_of::<usize>();
            total += r.syms.capacity() * size_of::<Sym>();
            total += r.emb_sum.capacity() * size_of::<f32>();
            total += r.local_flat.capacity() * size_of::<f32>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_text::intern::Interner;

    #[test]
    fn discover_names_records_by_slot() {
        let mut it = Interner::new();
        let andy = [it.intern("andy"), it.intern("beshear")];
        let mut cb = CandidateBase::new(3);
        assert_eq!(cb.discover(&andy), 0);
        assert_eq!(cb.discover(&[it.intern("italy")]), 1);
        assert_eq!(cb.len(), 2);
        let rec = cb.get(0).unwrap();
        assert_eq!(rec.token_len(), 2);
        assert_eq!(it.join(&rec.syms), "andy beshear");
        assert!(cb.get(2).is_none());
    }

    #[test]
    fn incremental_pooling_is_mean() {
        let mut cb = CandidateBase::new(2);
        let id = cb.discover(&[0]);
        let r = cb.get_mut(id);
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
        let id = cb.discover(&[0]);
        let r = cb.get_mut(id);
        r.add_mention(&[1.0, 0.0], true);
        r.add_mention(&[0.0, 2.0], true);
        assert_eq!(r.pooled_embedding(Pooling::Max), vec![1.0, 2.0]);
        assert_eq!(r.pooled_embedding(Pooling::Mean), vec![0.5, 1.0]);
    }

    #[test]
    fn empty_pool_is_zeros() {
        let mut cb = CandidateBase::new(4);
        let id = cb.discover(&[0]);
        let r = cb.get(id).unwrap();
        assert_eq!(r.global_embedding(), vec![0.0; 4]);
        assert_eq!(r.frequency(), 0);
    }

    #[test]
    fn one_call_counts_the_mention_and_pools_it() {
        let mut cb = CandidateBase::new(1);
        let id = cb.discover(&[0]);
        let r = cb.get_mut(id);
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
        let id = cb.discover(&[0]);
        cb.get_mut(id).add_mention(&[1.0], true);
    }

    #[test]
    fn prune_retain_frees_ids_for_reuse() {
        let mut cb = CandidateBase::new(1);
        for sym in [10, 11, 12, 13] {
            cb.discover(&[sym]);
        }
        let pruned = cb.prune_retain(|r| r.syms != [11] && r.syms != [13]);
        let ids: Vec<CandId> = pruned.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3]);
        let live: Vec<(CandId, Sym)> = cb.entries().map(|(id, r)| (id, r.syms[0])).collect();
        assert_eq!(live, vec![(0, 10), (2, 12)]);
        assert_eq!(cb.len(), 2);
        assert!(cb.get(1).is_none());
        // The survivors keep their ids.
        cb.get_mut(2).add_mention(&[1.0], false);
        assert_eq!(cb.get(2).unwrap().frequency(), 1);
        assert_eq!(cb.get(0).unwrap().frequency(), 0);
        // A rediscovered candidate starts fresh, in the last freed slot.
        assert_eq!(cb.discover(&[11]), 3);
        assert_eq!(cb.discover(&[14]), 1);
        assert_eq!(cb.discover(&[15]), 4);
        assert_eq!(cb.len(), 5);
        assert_eq!(cb.get(3).unwrap().frequency(), 0);
    }

    #[test]
    fn prune_retain_all_kept_is_noop() {
        let mut cb = CandidateBase::new(1);
        cb.discover(&[0]);
        cb.discover(&[1]);
        let pruned = cb.prune_retain(|_| true);
        assert!(pruned.is_empty());
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.get(0).unwrap().syms, vec![0]);
    }

    #[test]
    fn clones_share_records_until_a_mention_is_pooled() {
        let mut cb = CandidateBase::new(1);
        for sym in [0, 1] {
            let id = cb.discover(&[sym]);
            cb.get_mut(id).add_mention(&[1.0], true);
        }
        let snap = cb.clone();
        let shared = |cb: &CandidateBase, snap: &CandidateBase, id: usize| {
            Arc::ptr_eq(
                cb.records[id].as_ref().unwrap(),
                snap.records[id].as_ref().unwrap(),
            )
        };
        assert!(shared(&cb, &snap, 0));
        // A new candidate is appended; the shared records stay shared.
        assert_eq!(cb.discover(&[2]), 2);
        assert_eq!(cb.get(2).unwrap().frequency(), 0);
        assert!(shared(&cb, &snap, 1));
        // Pooling copies the record the snapshot holds, and only it.
        cb.get_mut(1).add_mention(&[1.0], false);
        assert!(!shared(&cb, &snap, 1));
        assert!(shared(&cb, &snap, 0));
        assert_eq!(snap.get(1).unwrap().frequency(), 1);
        assert_eq!(cb.get(1).unwrap().frequency(), 2);
        assert_eq!(cb.get(1).unwrap().locally_detected_frequency(), 1);
        // A record already flagged degraded is not copied to flag it again.
        cb.mark_degraded(0);
        let snap = cb.clone();
        cb.mark_degraded(0);
        assert!(shared(&cb, &snap, 0));
    }

    #[test]
    fn store_local_off_skips_per_mention_embeddings() {
        let mut cb = CandidateBase::new(2);
        cb.set_store_local(false);
        let id = cb.discover(&[0]);
        let r = cb.get_mut(id);
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
            let id = cb.discover(&[i, i + 1, i + 2]);
            cb.get_mut(id).add_mention(&[0.5; 8], true);
        }
        let before = cb.resident_bytes();
        cb.prune_retain(|r| r.syms[0] % 10 == 1);
        assert!(
            cb.resident_bytes() < before,
            "pruning must shrink resident bytes"
        );
    }
}
