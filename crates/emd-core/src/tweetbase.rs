//! TweetBase: per-sentence records maintained across the pipeline.
//!
//! Indexed by `(tweet id, sentence id)` pairs, a record stores the sentence
//! itself, the token embeddings produced at Local EMD (deep systems only),
//! the spans the local system detected, and the mention list that Global
//! EMD updates as the sentences pass through the second phase.
//!
//! A record is also where mention dedup lives. Every span in its
//! `global_mentions` has been pooled into its candidate, and `retired`
//! holds the spans it pooled that have since left its extraction (greedy
//! longest-match can drop a span and bring it back later). A rescan pools
//! a span only if it is in neither list. The candidate records keep only
//! counts (see [`crate::candidatebase`]).
//!
//! ## SoA layout
//!
//! The store is the owner of the pipeline's shared token [`Interner`]. At
//! insert every token is case-folded and interned once into
//! [`TweetRecord::tok_syms`]; the occurrence scan, the inverted index, and
//! the CTrie walk all operate on those `u32` symbols — the per-scan
//! `to_lowercase()` string churn of the original layout is gone. The
//! inverted index keeps every symbol's posting list as a region of one
//! `u32` arena (see [`Postings`]), and token-embedding matrices live in
//! one flat `f32` arena (`emb_arena`) with per-record row offsets instead
//! of a heap allocation per sentence.
//!
//! `insert` drains an incoming record's `token_embeddings` matrix into the
//! arena. Stored records answer through [`TweetBase::embedding_view`];
//! `evict` hands the record back *without* its rows (its caller reads
//! only the id and mention count), so an evicted record's
//! `token_embeddings` is `None` and its arena placement is meaningless
//! once a later [`TweetBase::compact`] has run.
//!
//! ## Shared records
//!
//! Slots hold `Arc<TweetRecord>`, so cloning the store — the supervisor
//! snapshots the whole pipeline state before every batch — copies one
//! pointer per record instead of the record. Every write goes through
//! `Arc::make_mut`: a record is deep-copied only when it is written while
//! an older snapshot still holds it, and a batch's own new records are
//! never shared, so they are never copied. The indexes beside the records
//! are flat: the posting arena and its region table are `Copy` vectors
//! and the id index a table of `Copy` pairs, so each clones as one block
//! copy, whatever the window or its vocabulary.
//!
//! ## Bounded-memory storage
//!
//! For 24/7 streams the store supports *eviction*: a record can be removed
//! from its slot (the slot becomes a tombstone) while stream-order indices
//! of the remaining records stay stable — the globalizer's dirty set,
//! quarantine set, and the token posting lists all hold slot indices, and
//! none of them need rewriting when a cold record is dropped. Eviction
//! removes the record's posting-list entries and frees the sentence and
//! span storage; its arena rows become dead bytes that
//! [`TweetBase::compact`] reclaims when it squeezes out the tombstones
//! (returning an old→new index remap for the caller's index-keyed sets) so
//! checkpoints and restarts stay O(live window), not O(stream).

use emd_nn::matrix::Matrix;
use emd_text::intern::{Interner, Sym};
use emd_text::token::{Sentence, SentenceId, Span};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Where a record's token-embedding rows live inside the store's arena.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct EmbSlot {
    /// Flat offset of row 0 in `emb_arena`.
    off: usize,
    /// Number of rows (= sentence tokens for deep local systems).
    rows: usize,
    /// Embedding dimensionality.
    cols: usize,
}

/// Borrowed view of one record's token-embedding rows in the arena.
#[derive(Debug, Clone, Copy)]
pub struct EmbView<'a> {
    /// The record's `rows * cols` floats, row-major.
    pub data: &'a [f32],
    /// Number of token rows.
    pub rows: usize,
    /// Embedding dimensionality.
    pub cols: usize,
}

impl<'a> EmbView<'a> {
    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// One sentence's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TweetRecord {
    /// The sentence.
    pub sentence: Sentence,
    /// Entity-aware token embeddings `[T, d]` from Local EMD (deep only).
    /// Carried by records on their way *into* the store; drained into the
    /// arena at insert (stored records answer through
    /// [`TweetBase::embedding_view`]) and not restored by eviction.
    pub token_embeddings: Option<Matrix>,
    /// Spans the Local EMD system itself proposed.
    pub local_spans: Vec<Span>,
    /// All candidate mentions found by the global rescan (superset of the
    /// verified `local_spans`, aligned to CTrie candidates). Each has been
    /// pooled into its candidate.
    pub global_mentions: Vec<Span>,
    /// Spans this record pooled that have since left `global_mentions`
    /// (a longer candidate took their tokens, or the record was
    /// quarantined). Disjoint from `global_mentions` and almost always
    /// empty; it keeps a span that comes back from being pooled twice.
    pub retired: Vec<Span>,
    /// Case-folded interned symbol per token, filled at insert. The scan
    /// walks these against the CTrie's symbol edges allocation-free.
    pub tok_syms: Vec<Sym>,
    /// Arena placement of the token embeddings while stored.
    emb: Option<EmbSlot>,
}

impl TweetRecord {
    /// A fresh (not-yet-inserted) record. `tok_syms` is populated by
    /// [`TweetBase::insert`].
    pub fn new(
        sentence: Sentence,
        token_embeddings: Option<Matrix>,
        local_spans: Vec<Span>,
    ) -> TweetRecord {
        TweetRecord {
            sentence,
            token_embeddings,
            local_spans,
            global_mentions: Vec::new(),
            retired: Vec::new(),
            tok_syms: Vec::new(),
            emb: None,
        }
    }

    /// The folded symbols of the tokens `span` covers: the CTrie path of
    /// the candidate a mention there names.
    pub fn syms_of(&self, span: &Span) -> &[Sym] {
        &self.tok_syms[span.start..span.end]
    }

    /// Has this record already pooled a mention at `span`? A span fixes
    /// its candidate (the one its folded symbols spell), so this is also
    /// "has that candidate pooled this mention?".
    pub fn has_pooled(&self, span: &Span) -> bool {
        self.global_mentions.contains(span) || self.retired.contains(span)
    }

    /// Store a fresh extraction. Spans that leave `global_mentions` move
    /// to `retired`; retired spans that come back move out of it.
    pub fn set_global_mentions(&mut self, mentions: Vec<Span>) {
        let old = std::mem::replace(&mut self.global_mentions, mentions);
        let current = &self.global_mentions;
        self.retired.retain(|sp| !current.contains(sp));
        self.retired
            .extend(old.into_iter().filter(|sp| !current.contains(sp)));
    }

    /// Drop every mention from `global_mentions` (a quarantined record
    /// must not feed promotions or emission), keeping them as pooled.
    pub fn retire_mentions(&mut self) {
        self.retired.append(&mut self.global_mentions);
    }
}

/// The stream-wide sentence store.
///
/// Besides the id → record map, the store maintains an inverted index from
/// interned token symbol to the (stream-ordered) record indices of
/// sentences containing that token. Global EMD uses it to find which
/// sentences a newly discovered candidate could possibly match — a
/// candidate insertion only changes a sentence's extraction if the
/// sentence contains the candidate's whole token sequence — by walking
/// the posting list of the candidate's rarest token and confirming the
/// match, so the close-of-stream rescan touches only those sentences
/// instead of the whole stream.
///
/// Posting-list invariant: every list holds strictly ascending indices of
/// **live** records whose sentence contains the token. Replacement and
/// eviction both maintain this by removing the outgoing record's postings;
/// there are no stale or duplicated entries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TweetBase {
    /// Stream-ordered record slots; `None` marks an evicted record.
    /// Records are shared with clones of the store until written.
    slots: Vec<Option<Arc<TweetRecord>>>,
    /// Sentence id → slot index, live records only.
    index: HashMap<SentenceId, usize>,
    /// The pipeline-wide token interner (symbols shared with the CTrie).
    interner: Interner,
    /// Symbol → strictly ascending live slot indices.
    postings: Postings,
    /// Flat row-major token-embedding storage for all live records.
    emb_arena: Vec<f32>,
    /// Arena floats belonging to evicted/replaced records (reclaimed by
    /// [`TweetBase::compact`]).
    emb_dead: usize,
    /// Number of live (non-tombstone) slots.
    live: usize,
    /// Cumulative count of evictions over the lifetime of the store
    /// (survives compaction; drives the evicted-records gauge).
    evicted_total: u64,
    /// Reusable scratch for posting-list updates (sorted/deduped symbols
    /// of one sentence) — keeps add/remove allocation-free in steady
    /// state.
    #[serde(skip)]
    scratch_syms: Vec<Sym>,
}

/// Where one symbol's posting list lives in the posting arena: its block
/// is `arena[start..start + cap]`, and its live entries are the `len`
/// entries from `start + head`. `Copy`, so the table of regions clones
/// as one block.
#[derive(Debug, Clone, Copy, Default)]
struct Region {
    start: u32,
    head: u32,
    len: u32,
    cap: u32,
}

impl Region {
    /// Arena range of the live entries.
    #[inline]
    fn live(&self) -> std::ops::Range<usize> {
        let from = (self.start + self.head) as usize;
        from..from + self.len as usize
    }
}

/// Every symbol's posting list in one arena of slot indices, each list a
/// contiguous region of it (see [`Region`]). Both the arena and the
/// region table are flat `Copy` vectors, so cloning the index (the
/// supervisor snapshots the state before every batch) is two block
/// copies, and dropping it two frees.
///
/// - An append writes into the region's free tail. A list whose region is
///   full slides its entries to the block's start if its dead front is at
///   least half as long as the list, and otherwise moves to the arena's
///   end with double the capacity, leaving its old block dead: amortised
///   O(1).
/// - Window eviction runs oldest-first, so removals overwhelmingly hit a
///   list's front, and a front removal just advances `head`. A removal
///   from the middle (a replaced record) shifts the tail down by one.
/// - A list that empties gives its block up. Blocks given up or left
///   behind by moves are dead space, and the arena compacts itself once
///   dead space exceeds live space (the lists' entries).
///
/// Serializes as the logical lists, one per symbol, so the checkpoint
/// schema is the one a `Vec` per symbol had.
#[derive(Debug, Clone, Default)]
struct Postings {
    arena: Vec<u32>,
    /// Indexed by `Sym`; symbols never seen in a sentence own no block.
    lists: Vec<Region>,
    /// Arena entries no region owns.
    dead: usize,
    /// Live entries over all lists.
    live: usize,
}

impl Postings {
    /// Capacity of a list's first block.
    const FIRST_CAP: u32 = 4;

    /// The live entries of `sym`'s list, strictly ascending.
    #[inline]
    fn get(&self, sym: Sym) -> &[u32] {
        self.lists
            .get(sym as usize)
            .map_or(&[], |r| &self.arena[r.live()])
    }

    /// Insert `i` into `sym`'s list, keeping it strictly ascending and
    /// deduplicated.
    fn insert(&mut self, sym: Sym, i: u32) {
        let s = sym as usize;
        if self.lists.len() <= s {
            self.lists.resize(s + 1, Region::default());
        }
        let pos = match self.arena[self.lists[s].live()].binary_search(&i) {
            Ok(_) => return,
            Err(pos) => pos,
        };
        let r = self.lists[s];
        if r.head + r.len == r.cap {
            self.make_room(s);
        }
        let r = &mut self.lists[s];
        let at = (r.start + r.head) as usize + pos;
        let end = r.live().end;
        r.len += 1;
        self.arena.copy_within(at..end, at + 1);
        self.arena[at] = i;
        self.live += 1;
        self.maybe_compact();
    }

    /// Give the full region of list `s` a free tail entry.
    fn make_room(&mut self, s: usize) {
        let r = self.lists[s];
        let live = r.live();
        if r.head > 0 && r.head * 2 >= r.len {
            self.arena.copy_within(live, r.start as usize);
            self.lists[s].head = 0;
            return;
        }
        let start = self.arena.len();
        let cap = (r.cap * 2).max(Self::FIRST_CAP);
        self.arena.extend_from_within(live);
        self.arena.resize(start + cap as usize, 0);
        self.dead += r.cap as usize;
        self.lists[s] = Region {
            start: to_u32(start),
            head: 0,
            len: r.len,
            cap,
        };
    }

    /// Remove `i` from `sym`'s list if present.
    fn remove(&mut self, sym: Sym, i: u32) {
        let Some(&r) = self.lists.get(sym as usize) else {
            return;
        };
        let Ok(pos) = self.arena[r.live()].binary_search(&i) else {
            return;
        };
        self.live -= 1;
        let r = &mut self.lists[sym as usize];
        if r.len == 1 {
            // The last entry: the list gives its block up.
            self.dead += r.cap as usize;
            *r = Region::default();
            self.maybe_compact();
            return;
        }
        if pos == 0 {
            r.head += 1;
        } else {
            let live = r.live();
            self.arena
                .copy_within(live.start + pos + 1..live.end, live.start + pos);
        }
        r.len -= 1;
    }

    /// Compact once dead space exceeds live space.
    fn maybe_compact(&mut self) {
        if self.dead > self.live {
            self.rebuild(|i| i);
        }
    }

    /// The block a list of `len` entries gets when the arena is laid out
    /// afresh: half as long again, so the list takes appends before it
    /// has to move.
    fn block(len: u32) -> u32 {
        len + len.div_ceil(2)
    }

    /// Rewrite the arena with every list's live entries, mapped through
    /// `map` (which must keep them strictly ascending), each in a fresh
    /// [`Postings::block`]: no dead space, and room to grow.
    fn rebuild(&mut self, map: impl Fn(u32) -> u32) {
        let owned: usize = self.lists.iter().map(|r| Self::block(r.len) as usize).sum();
        let mut arena = Vec::with_capacity(owned);
        for r in &mut self.lists {
            let start = arena.len();
            arena.extend(self.arena[r.live()].iter().map(|&i| map(i)));
            let cap = Self::block(r.len);
            arena.resize(start + cap as usize, 0);
            *r = Region {
                start: to_u32(start),
                head: 0,
                len: r.len,
                cap,
            };
        }
        self.arena = arena;
        self.dead = 0;
    }

    /// Heap bytes of the arena and the region table, from capacities.
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity() * size_of::<u32>() + self.lists.capacity() * size_of::<Region>()
    }
}

// Checkpoints carry the logical lists only, one per symbol: the schema a
// `Vec` per symbol had. The arena layout is rebuilt on load.
impl Serialize for Postings {
    fn write_json(&self, out: &mut serde::ser::Out<'_>) {
        serde::ser::write_seq(self.lists.iter().map(|r| &self.arena[r.live()]), out);
    }
}

impl Deserialize for Postings {
    fn from_value(v: &serde::value::Value) -> Result<Postings, serde::DeError> {
        let offset =
            |n: usize| u32::try_from(n).map_err(|_| serde::DeError::msg("posting arena too large"));
        let lists = Vec::<Vec<u32>>::from_value(v)?;
        let mut postings = Postings::default();
        for list in lists {
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(serde::DeError::msg("posting list not strictly ascending"));
            }
            let (start, len) = (offset(postings.arena.len())?, offset(list.len())?);
            postings.arena.extend_from_slice(&list);
            postings.live += list.len();
            postings.lists.push(Region {
                start,
                head: 0,
                len,
                cap: len,
            });
        }
        // Room for the blocks `rebuild` lays out.
        offset(2 * postings.live)?;
        postings.rebuild(|i| i);
        Ok(postings)
    }
}

/// A slot index or arena offset as the posting arena stores it.
fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("slot indices and posting arena offsets fit u32")
}

impl TweetBase {
    /// Empty TweetBase.
    pub fn new() -> TweetBase {
        TweetBase::default()
    }

    /// The shared token interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the shared interner (trie registration interns
    /// candidate tokens through this).
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Insert a record at the end of the stream order, interning its
    /// tokens and moving its embedding matrix into the arena. Replaces any
    /// previous record with the same id (streams should not repeat ids);
    /// the replaced record's posting-list entries are removed before the
    /// new sentence is indexed, so postings never go stale or unsorted.
    /// A replacement inherits, as `retired`, the pooled spans of the old
    /// record whose folded surface it repeats, so a re-delivered sentence
    /// does not pool its mentions a second time.
    pub fn insert(&mut self, mut record: TweetRecord) -> usize {
        record.tok_syms.clear();
        for t in &record.sentence.tokens {
            record.tok_syms.push(self.interner.intern_folded(&t.text));
        }
        record.emb = record.token_embeddings.take().map(|m| {
            let off = self.emb_arena.len();
            self.emb_arena.extend_from_slice(&m.data);
            EmbSlot {
                off,
                rows: m.rows,
                cols: m.cols,
            }
        });
        let id = record.sentence.id;
        let i = if let Some(&i) = self.index.get(&id) {
            // Replacement: drop the old sentence's postings first. Pushing
            // the new tokens directly would re-append index `i` *after*
            // any later records' indices (the old tail-only dedup produced
            // unsorted, duplicated lists like `[0, 1, 0]`).
            if let Some(old) = self.slots[i].take() {
                self.remove_record_postings(i, &old);
                let same_surface = |sp: &&Span| {
                    sp.end <= record.tok_syms.len()
                        && old.tok_syms[sp.start..sp.end] == record.tok_syms[sp.start..sp.end]
                };
                record.retired = old
                    .global_mentions
                    .iter()
                    .chain(&old.retired)
                    .filter(same_surface)
                    .copied()
                    .collect();
            }
            self.slots[i] = Some(Arc::new(record));
            i
        } else {
            let i = self.slots.len();
            self.index.insert(id, i);
            self.slots.push(Some(Arc::new(record)));
            self.live += 1;
            i
        };
        self.add_postings(i);
        i
    }

    /// Index every distinct symbol of slot `i`'s sentence, keeping each
    /// posting list strictly ascending. Uses the reusable scratch buffer —
    /// no per-call allocation once warm.
    fn add_postings(&mut self, i: usize) {
        let mut keys = std::mem::take(&mut self.scratch_syms);
        keys.clear();
        keys.extend_from_slice(
            &self.slots[i]
                .as_ref()
                .expect("add_postings on tombstone")
                .tok_syms,
        );
        keys.sort_unstable();
        keys.dedup();
        let i = to_u32(i);
        for &sym in &keys {
            self.postings.insert(sym, i);
        }
        self.scratch_syms = keys;
    }

    /// Remove slot `i`'s entries from the posting lists of `record`'s
    /// symbols (a list that empties gives its block up: a token whose
    /// last sentence left the window should not pin memory), and mark the
    /// record's embedding rows dead.
    fn remove_record_postings(&mut self, i: usize, record: &TweetRecord) {
        let mut keys = std::mem::take(&mut self.scratch_syms);
        keys.clear();
        keys.extend_from_slice(&record.tok_syms);
        keys.sort_unstable();
        keys.dedup();
        let i = to_u32(i);
        for &sym in &keys {
            self.postings.remove(sym, i);
        }
        self.scratch_syms = keys;
        if let Some(slot) = record.emb {
            self.emb_dead += slot.rows * slot.cols;
        }
    }

    /// Ascending live-record indices of sentences containing the token
    /// `sym` folds. Strictly ascending, deduplicated, and free of replaced
    /// or evicted records.
    #[inline]
    pub fn indices_with_sym(&self, sym: Sym) -> &[u32] {
        self.postings.get(sym)
    }

    /// Token-embedding rows of the record in slot `i`, if it is live and
    /// its local system produced embeddings.
    pub fn embedding_view(&self, i: usize) -> Option<EmbView<'_>> {
        let slot = self.slots.get(i)?.as_ref()?.emb?;
        Some(EmbView {
            data: &self.emb_arena[slot.off..slot.off + slot.rows * slot.cols],
            rows: slot.rows,
            cols: slot.cols,
        })
    }

    /// Record by stream-order index. Panics if the slot was evicted —
    /// internal callers only reach live indices (via postings, the dirty
    /// set, or [`TweetBase::iter_indexed`]).
    pub fn get_by_index(&self, i: usize) -> &TweetRecord {
        self.slots[i].as_ref().expect("record was evicted")
    }

    /// Mutable record by stream-order index (same liveness contract as
    /// [`TweetBase::get_by_index`]). Copies the record first if a clone
    /// of the store still shares it.
    pub fn get_mut_by_index(&mut self, i: usize) -> &mut TweetRecord {
        Arc::make_mut(self.slots[i].as_mut().expect("record was evicted"))
    }

    /// Record by stream-order index, `None` for tombstones.
    pub fn record_at(&self, i: usize) -> Option<&TweetRecord> {
        self.slots.get(i)?.as_deref()
    }

    /// True when slot `i` holds a live record.
    pub fn is_live(&self, i: usize) -> bool {
        self.slots.get(i).map(Option::is_some).unwrap_or(false)
    }

    /// Stream-order index for a sentence id (live records only).
    pub fn index_of(&self, id: SentenceId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Lookup by sentence id.
    pub fn get(&self, id: SentenceId) -> Option<&TweetRecord> {
        self.record_at(*self.index.get(&id)?)
    }

    /// Mutable lookup by sentence id (copy-on-write, like
    /// [`TweetBase::get_mut_by_index`]).
    pub fn get_mut(&mut self, id: SentenceId) -> Option<&mut TweetRecord> {
        let i = *self.index.get(&id)?;
        self.slots[i].as_mut().map(Arc::make_mut)
    }

    /// Live records in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &TweetRecord> {
        self.slots.iter().flatten().map(|r| &**r)
    }

    /// Live `(slot index, record)` pairs in stream order. Use this instead
    /// of `iter().enumerate()` when positions must align with the dirty /
    /// quarantine sets (enumeration over live records skips tombstones, so
    /// its ordinals are *not* slot indices).
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &TweetRecord)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|r| (i, r)))
    }

    /// Number of live sentences stored.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live sentences are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot count, including tombstones (the stream-order index
    /// space; `len() <= n_slots()`).
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative evictions over the lifetime of the store.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// First live slot index at or after `from`, scanning in stream order.
    pub fn first_live_from(&self, from: usize) -> Option<usize> {
        (from..self.slots.len()).find(|&i| self.slots[i].is_some())
    }

    /// Evict the record in slot `i`: remove its posting-list entries and
    /// its id mapping, and leave a tombstone so other slots keep their
    /// indices. The record is handed back as stored — still shared with
    /// any clone of the store, and without its embedding rows, which stay
    /// in the arena as dead floats until [`TweetBase::compact`]. Returns
    /// `None` if the slot was already a tombstone.
    pub fn evict(&mut self, i: usize) -> Option<Arc<TweetRecord>> {
        let record = self.slots.get_mut(i)?.take()?;
        self.remove_record_postings(i, &record);
        self.index.remove(&record.sentence.id);
        self.live -= 1;
        self.evicted_total += 1;
        Some(record)
    }

    /// Squeeze out tombstone slots so the stored vector is dense again,
    /// rebuilding the embedding arena with only live rows (reclaiming the
    /// dead floats of evicted and replaced records). Returns the old→new
    /// slot-index remap (`None` for evicted slots) so callers can rebase
    /// any index-keyed side structures; returns `None` when there was
    /// nothing to compact.
    pub fn compact(&mut self) -> Option<Vec<Option<usize>>> {
        if self.live == self.slots.len() && self.emb_dead == 0 {
            return None;
        }
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.slots.len());
        let mut next = 0usize;
        for slot in &self.slots {
            if slot.is_some() {
                remap.push(Some(next));
                next += 1;
            } else {
                remap.push(None);
            }
        }
        let old = std::mem::take(&mut self.slots);
        self.slots = old.into_iter().flatten().map(Some).collect();
        // Rewrite the arena with live rows only, in slot order. Bit-for-bit
        // copies: compaction must not perturb any downstream f32 result.
        // Only records whose rows actually move are written (and so
        // unshared).
        let live_floats = self.emb_arena.len().saturating_sub(self.emb_dead);
        let mut arena = Vec::with_capacity(live_floats);
        for record in self.slots.iter_mut().flatten() {
            if let Some(e) = record.emb {
                let off = arena.len();
                arena.extend_from_slice(&self.emb_arena[e.off..e.off + e.rows * e.cols]);
                if e.off != off {
                    Arc::make_mut(record).emb = Some(EmbSlot { off, ..e });
                }
            }
        }
        self.emb_arena = arena;
        self.emb_dead = 0;
        self.index.clear();
        for (i, r) in self.slots.iter().enumerate() {
            let id = r.as_ref().map(|r| r.sentence.id);
            self.index.insert(id.expect("compacted slots are live"), i);
        }
        // Postings hold live slots only, and the remap keeps their order.
        self.postings
            .rebuild(|i| to_u32(remap[i as usize].expect("postings hold live slots")));
        Some(remap)
    }

    /// Check the posting index both ways, and its arena layout. Sound:
    /// every list is strictly ascending and names only live records whose
    /// sentence holds its token. Complete: every symbol of every live
    /// record lists that record. Laid out: every region lies inside the
    /// arena, no two overlap, the regions and the dead count account for
    /// every arena entry, and the live count is the lists' total.
    /// O(arena + window tokens); for tests and audits.
    pub fn check_postings(&self) -> Result<(), String> {
        let p = &self.postings;
        let mut blocks = Vec::new();
        for (sym, r) in p.lists.iter().enumerate() {
            let token = self.interner.resolve(sym as Sym);
            if r.head + r.len > r.cap || (r.start + r.cap) as usize > p.arena.len() {
                return Err(format!("region of {token:?} out of bounds: {r:?}"));
            }
            if r.cap > 0 {
                blocks.push((r.start, r.cap));
            }
            let list = &p.arena[r.live()];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "postings for {token:?} not strictly ascending: {list:?}"
                ));
            }
            for &i in list {
                let Some(rec) = self.record_at(i as usize) else {
                    return Err(format!("posting for {token:?} points at tombstone {i}"));
                };
                if !rec.sentence.texts().any(|t| t.to_lowercase() == *token) {
                    return Err(format!(
                        "stale posting: record {i} does not contain {token:?}"
                    ));
                }
            }
        }
        blocks.sort_unstable();
        if let Some(w) = blocks.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            return Err(format!(
                "posting regions overlap: {:?} and {:?}",
                w[0], w[1]
            ));
        }
        let owned: usize = blocks.iter().map(|&(_, cap)| cap as usize).sum();
        let live: usize = p.lists.iter().map(|r| r.len as usize).sum();
        if owned + p.dead != p.arena.len() || live != p.live {
            return Err(format!(
                "regions own {owned} and {} are dead, of {} arena entries; \
                 {live} entries are live, {} counted",
                p.dead,
                p.arena.len(),
                p.live
            ));
        }
        for (i, rec) in self.iter_indexed() {
            for &sym in &rec.tok_syms {
                if self
                    .indices_with_sym(sym)
                    .binary_search(&to_u32(i))
                    .is_err()
                {
                    let token = self.interner.resolve(sym);
                    return Err(format!("record {i} holds {token:?} but is not in its list"));
                }
            }
        }
        Ok(())
    }

    /// Estimated resident heap bytes of the store: record blocks and
    /// their sentences, the token-embedding arena (the dominant term for
    /// deep local systems, including not-yet-compacted dead rows), span
    /// lists, symbol lists, and both indexes. Records shared with a clone
    /// are counted in full: this is what the store alone keeps alive. An
    /// estimate for gauges and eviction budgeting, not an allocator-exact
    /// measurement.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.slots.capacity() * size_of::<Option<Arc<TweetRecord>>>();
        for r in self.slots.iter().flatten() {
            // The shared block: the record plus its two reference counts.
            total += size_of::<TweetRecord>() + 2 * size_of::<usize>();
            for t in &r.sentence.tokens {
                total += size_of::<emd_text::token::Token>() + t.text.len();
            }
            total += r.tok_syms.capacity() * size_of::<Sym>();
            total += (r.local_spans.len() + r.global_mentions.len() + r.retired.len())
                * size_of::<Span>();
        }
        total += self.emb_arena.capacity() * size_of::<f32>();
        total += self.postings.resident_bytes();
        total += self.interner.resident_bytes();
        total += self.index.len() * (size_of::<SentenceId>() + size_of::<usize>());
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Live records holding the token (any casing).
    fn with_token<'a>(tb: &'a TweetBase, token: &str) -> &'a [u32] {
        tb.interner()
            .lookup_folded(token)
            .map_or(&[], |sym| tb.indices_with_sym(sym))
    }

    fn rec(tweet: u64) -> TweetRecord {
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), ["a", "b"]),
            None,
            vec![],
        )
    }

    fn rec_with(tweet: u64, tokens: &[&str]) -> TweetRecord {
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), tokens.iter().copied()),
            None,
            vec![],
        )
    }

    fn rec_with_emb(tweet: u64, tokens: &[&str], dim: usize) -> TweetRecord {
        let rows = tokens.len();
        let data: Vec<f32> = (0..rows * dim)
            .map(|i| tweet as f32 * 100.0 + i as f32)
            .collect();
        TweetRecord::new(
            Sentence::from_tokens(SentenceId::new(tweet, 0), tokens.iter().copied()),
            Some(Matrix {
                rows,
                cols: dim,
                data,
            }),
            vec![],
        )
    }

    fn assert_postings_consistent(tb: &TweetBase) {
        if let Err(e) = tb.check_postings() {
            panic!("{e}");
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        tb.insert(rec(2));
        assert_eq!(tb.len(), 2);
        assert!(tb.get(SentenceId::new(1, 0)).is_some());
        assert!(tb.get(SentenceId::new(3, 0)).is_none());
    }

    #[test]
    fn insert_interns_folded_token_symbols() {
        let mut tb = TweetBase::new();
        let i = tb.insert(rec_with(1, &["Italy", "reports", "ITALY"]));
        let r = tb.get_by_index(i);
        assert_eq!(r.tok_syms.len(), 3);
        assert_eq!(r.tok_syms[0], r.tok_syms[2], "case variants share a sym");
        assert_eq!(tb.interner().resolve(r.tok_syms[0]), "italy");
    }

    #[test]
    fn duplicate_id_replaces() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        let mut r = rec(1);
        r.local_spans.push(Span::new(0, 1));
        tb.insert(r);
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.get(SentenceId::new(1, 0)).unwrap().local_spans.len(), 1);
    }

    #[test]
    fn extraction_changes_retire_and_restore_pooled_spans() {
        let mut r = rec_with(1, &["a", "b", "c", "d", "e"]);
        let (a, bc, de) = (Span::new(0, 1), Span::new(1, 3), Span::new(3, 5));
        r.set_global_mentions(vec![a, bc, de]);
        assert!(r.retired.is_empty());
        r.set_global_mentions(vec![Span::new(0, 2), Span::new(2, 4)]);
        assert_eq!(r.retired, vec![a, bc, de]);
        // `d e` comes back: it leaves `retired`, and stays pooled.
        r.set_global_mentions(vec![Span::new(0, 3), de]);
        assert_eq!(r.retired, vec![a, bc, Span::new(0, 2), Span::new(2, 4)]);
        assert!(r.has_pooled(&de) && r.has_pooled(&a));
        assert!(!r.has_pooled(&Span::new(4, 5)));
        r.retire_mentions();
        assert!(r.global_mentions.is_empty());
        assert_eq!(r.retired.len(), 6);
        assert!(r.has_pooled(&de));
    }

    #[test]
    fn replacement_inherits_pooled_spans_with_the_same_surface() {
        let mut tb = TweetBase::new();
        let i = tb.insert(rec_with(1, &["Italy", "and", "covid"]));
        tb.get_mut_by_index(i)
            .set_global_mentions(vec![Span::new(0, 1), Span::new(2, 3)]);
        // Re-delivered with one token changed: only the span whose folded
        // surface is unchanged counts as pooled already.
        tb.insert(rec_with(1, &["ITALY", "and", "flu"]));
        let r = tb.get_by_index(i);
        assert!(r.global_mentions.is_empty());
        assert_eq!(r.retired, vec![Span::new(0, 1)]);
        // A shorter replacement drops spans past its end.
        tb.get_mut_by_index(i)
            .set_global_mentions(vec![Span::new(2, 3)]);
        tb.insert(rec_with(1, &["italy"]));
        assert_eq!(tb.get_by_index(i).retired, vec![Span::new(0, 1)]);
    }

    #[test]
    fn stream_order_preserved() {
        let mut tb = TweetBase::new();
        for t in [5u64, 2, 9] {
            tb.insert(rec(t));
        }
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![5, 2, 9]);
    }

    #[test]
    fn token_index_finds_sentences() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["Italy", "report"]));
        tb.insert(rec_with(2, &["italy", "italy", "again"]));
        // Case-folded, deduped per record, ascending order.
        assert_eq!(with_token(&tb, "italy"), &[0, 1]);
        assert_eq!(with_token(&tb, "report"), &[0]);
        assert_eq!(with_token(&tb, "missing"), &[] as &[u32]);
        let sym = tb.interner().lookup_folded("ITALY").unwrap();
        assert_eq!(tb.indices_with_sym(sym), &[0, 1]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn token_index_survives_replacement() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["old", "text"]));
        tb.insert(rec_with(1, &["new", "text"]));
        // The new tokens are indexed; the replaced sentence's postings are
        // removed outright — no stale entries remain.
        assert_eq!(with_token(&tb, "new"), &[0]);
        assert_eq!(with_token(&tb, "text"), &[0]);
        assert_eq!(with_token(&tb, "old"), &[] as &[u32]);
        assert_eq!(tb.len(), 1);
        assert_postings_consistent(&tb);
    }

    /// Regression for the replacement-path posting corruption: replacing a
    /// *non-final* record whose tokens also appear in later records used to
    /// re-push its index after theirs (`[0, 1, 0]`) because the tail-only
    /// dedup never saw the earlier entry. Postings must stay strictly
    /// ascending, deduplicated, and stale-free.
    #[test]
    fn replacing_non_final_record_keeps_postings_sorted() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["shared", "alpha"]));
        tb.insert(rec_with(2, &["shared", "beta"]));
        // Replace record 0 with a sentence still containing "shared".
        tb.insert(rec_with(1, &["shared", "gamma"]));
        assert_eq!(
            with_token(&tb, "shared"),
            &[0, 1],
            "replacement must not duplicate or unsort postings"
        );
        assert_eq!(with_token(&tb, "alpha"), &[] as &[u32]);
        assert_eq!(with_token(&tb, "gamma"), &[0]);
        assert_postings_consistent(&tb);
        // Replace again with entirely fresh tokens: the shared posting for
        // record 0 must disappear.
        tb.insert(rec_with(1, &["delta"]));
        assert_eq!(with_token(&tb, "shared"), &[1]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn by_index_accessors() {
        let mut tb = TweetBase::new();
        tb.insert(rec(7));
        assert_eq!(tb.index_of(SentenceId::new(7, 0)), Some(0));
        assert_eq!(tb.get_by_index(0).sentence.id.tweet_id, 7);
        tb.get_mut_by_index(0).global_mentions.push(Span::new(0, 1));
        assert_eq!(tb.get_by_index(0).global_mentions.len(), 1);
    }

    #[test]
    fn mutable_update() {
        let mut tb = TweetBase::new();
        tb.insert(rec(1));
        tb.get_mut(SentenceId::new(1, 0))
            .unwrap()
            .global_mentions
            .push(Span::new(0, 2));
        assert_eq!(
            tb.get(SentenceId::new(1, 0)).unwrap().global_mentions.len(),
            1
        );
    }

    #[test]
    fn embeddings_live_in_arena_and_round_trip_through_evict() {
        let mut tb = TweetBase::new();
        let i1 = tb.insert(rec_with_emb(1, &["a", "b"], 3));
        let i2 = tb.insert(rec_with_emb(2, &["c"], 3));
        // Stored records hold no inline matrix; the view serves the rows.
        assert!(tb.get_by_index(i1).token_embeddings.is_none());
        let v = tb.embedding_view(i1).expect("record has embeddings");
        assert_eq!((v.rows, v.cols), (2, 3));
        assert_eq!(v.row(1), &[103.0, 104.0, 105.0]);
        let v2 = tb.embedding_view(i2).unwrap();
        assert_eq!(v2.row(0), &[200.0, 201.0, 202.0]);
        // No-embedding records answer None.
        let i3 = tb.insert(rec_with(3, &["d"]));
        assert!(tb.embedding_view(i3).is_none());
        // Evict hands the stored record back; its rows stay in the arena.
        let out = tb.evict(i1).unwrap();
        assert!(out.token_embeddings.is_none());
        assert!(tb.embedding_view(i1).is_none());
        // Survivor's view is untouched by the eviction...
        assert_eq!(
            tb.embedding_view(i2).unwrap().row(0),
            &[200.0, 201.0, 202.0]
        );
        // ...and by compaction, which reclaims the dead rows.
        let before = tb.emb_arena.len();
        tb.compact().expect("had tombstones");
        assert!(tb.emb_arena.len() < before, "dead rows reclaimed");
        assert_eq!(tb.emb_dead, 0);
        let i2_new = tb.index_of(SentenceId::new(2, 0)).unwrap();
        assert_eq!(
            tb.embedding_view(i2_new).unwrap().row(0),
            &[200.0, 201.0, 202.0]
        );
    }

    #[test]
    fn clones_share_records_until_written() {
        let mut tb = TweetBase::new();
        for t in 0..3u64 {
            tb.insert(rec_with(t, &["a", "b"]));
        }
        let snap = tb.clone();
        let shared = |tb: &TweetBase, snap: &TweetBase, i: usize| {
            Arc::ptr_eq(
                tb.slots[i].as_ref().unwrap(),
                snap.slots[i].as_ref().unwrap(),
            )
        };
        assert!((0..3).all(|i| shared(&tb, &snap, i)));
        // A write copies exactly the written record; the snapshot keeps
        // the old contents.
        tb.get_mut_by_index(1).global_mentions.push(Span::new(0, 1));
        assert!(snap.get_by_index(1).global_mentions.is_empty());
        assert_eq!(tb.get_by_index(1).global_mentions.len(), 1);
        assert!(!shared(&tb, &snap, 1));
        assert!(shared(&tb, &snap, 0) && shared(&tb, &snap, 2));
        // Eviction hands back the shared record itself, uncopied.
        let out = tb.evict(2).unwrap();
        assert!(Arc::ptr_eq(&out, snap.slots[2].as_ref().unwrap()));
        assert!(snap.is_live(2));
    }

    #[test]
    fn evict_frees_record_and_postings() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["cold", "shared"]));
        tb.insert(rec_with(2, &["hot", "shared"]));
        let evicted = tb.evict(0).expect("slot 0 live");
        assert_eq!(evicted.sentence.id, SentenceId::new(1, 0));
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.n_slots(), 2, "indices stay stable after eviction");
        assert_eq!(tb.evicted_total(), 1);
        assert!(!tb.is_live(0));
        assert!(tb.record_at(0).is_none());
        assert!(tb.get(SentenceId::new(1, 0)).is_none());
        assert_eq!(with_token(&tb, "cold"), &[] as &[u32]);
        assert_eq!(with_token(&tb, "shared"), &[1]);
        // Double eviction is a no-op.
        assert!(tb.evict(0).is_none());
        assert_eq!(tb.evicted_total(), 1);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn eviction_preserves_live_iteration_and_indices() {
        let mut tb = TweetBase::new();
        for t in 0..5u64 {
            tb.insert(rec_with(t, &["tok"]));
        }
        tb.evict(1);
        tb.evict(3);
        let live: Vec<(usize, u64)> = tb
            .iter_indexed()
            .map(|(i, r)| (i, r.sentence.id.tweet_id))
            .collect();
        assert_eq!(live, vec![(0, 0), (2, 2), (4, 4)]);
        assert_eq!(with_token(&tb, "tok"), &[0, 2, 4]);
        assert_eq!(tb.first_live_from(0), Some(0));
        assert_eq!(tb.first_live_from(1), Some(2));
        assert_eq!(tb.first_live_from(3), Some(4));
        assert_eq!(tb.first_live_from(5), None);
    }

    #[test]
    fn reinserting_an_evicted_id_appends_fresh() {
        let mut tb = TweetBase::new();
        tb.insert(rec_with(1, &["one"]));
        tb.insert(rec_with(2, &["two"]));
        tb.evict(0);
        let i = tb.insert(rec_with(1, &["one", "again"]));
        assert_eq!(i, 2, "an evicted id re-enters at the stream tail");
        assert_eq!(with_token(&tb, "one"), &[2]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn compact_squeezes_tombstones_with_remap() {
        let mut tb = TweetBase::new();
        for t in 0..6u64 {
            tb.insert(rec_with(t, &["tok", &format!("w{t}")]));
        }
        tb.evict(0);
        tb.evict(2);
        tb.evict(3);
        let remap = tb.compact().expect("had tombstones");
        assert_eq!(remap, vec![None, Some(0), None, None, Some(1), Some(2)]);
        assert_eq!(tb.n_slots(), 3);
        assert_eq!(tb.len(), 3);
        assert_eq!(
            tb.evicted_total(),
            3,
            "cumulative count survives compaction"
        );
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![1, 4, 5]);
        assert_eq!(with_token(&tb, "tok"), &[0, 1, 2]);
        assert_eq!(tb.index_of(SentenceId::new(4, 0)), Some(1));
        assert_postings_consistent(&tb);
        // Dense store: nothing to compact.
        assert!(tb.compact().is_none());
    }

    #[test]
    fn resident_bytes_shrinks_on_eviction() {
        let mut tb = TweetBase::new();
        for t in 0..8u64 {
            tb.insert(rec_with(
                t,
                &["some", "reasonably", "long", "sentence", "tokens"],
            ));
        }
        let before = tb.resident_bytes();
        for i in 0..6 {
            tb.evict(i);
        }
        let after = tb.resident_bytes();
        assert!(
            after < before,
            "eviction must shrink resident bytes: {before} -> {after}"
        );
    }

    #[test]
    fn postings_serialize_their_logical_lists() {
        let mut p = Postings::default();
        for i in [3, 5, 8, 13] {
            p.insert(0, i);
        }
        p.insert(2, 7);
        p.remove(0, 3);
        assert_eq!(p.lists[0].head, 1, "a front removal advances the head");
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, "[[5,8,13],[],[7]]");
        let back: Postings = serde_json::from_str(&json).unwrap();
        assert_eq!(
            (back.get(0), back.get(1), back.get(2)),
            (p.get(0), &[][..], p.get(2))
        );
        assert!(serde_json::from_str::<Postings>("[[5,3]]").is_err());
    }

    #[test]
    fn full_regions_slide_or_move_and_the_arena_compacts() {
        let mut p = Postings::default();
        for i in 0..4 {
            p.insert(0, i);
        }
        p.insert(1, 0);
        p.insert(2, 0);
        assert_eq!(p.lists[0].cap, 4);
        // List 0 is full and its block no longer ends the arena: it moves
        // to the end with double the capacity, leaving its block dead.
        p.insert(0, 4);
        assert_eq!((p.lists[0].start, p.lists[0].cap, p.dead), (12, 8, 4));
        // A dead front half as long as the list: a full list slides in
        // place.
        for i in 0..4 {
            p.remove(0, i);
        }
        for i in 5..8 {
            p.insert(0, i);
        }
        assert_eq!((p.lists[0].head, p.lists[0].len), (4, 4));
        p.insert(0, 8);
        assert_eq!((p.lists[0].start, p.lists[0].head), (12, 0));
        assert_eq!(p.get(0), &[4, 5, 6, 7, 8]);
        // An emptied list gives its block up. With 8 entries dead against
        // 6 live, the arena compacts, each list into a block half as long
        // again as the list.
        p.remove(1, 0);
        assert_eq!(p.dead, 0, "compacted");
        assert_eq!(p.arena.len(), 8 + 2);
        assert_eq!(
            (p.get(0), p.get(1), p.get(2)),
            (&[4, 5, 6, 7, 8][..], &[][..], &[0][..])
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Insert tweet `id` with tokens drawn from a small vocabulary
            /// (a re-delivered id replaces its record).
            Insert(u64, Vec<usize>),
            /// Evict the `n`-th live slot.
            Evict(usize),
            Compact,
        }

        /// Six inserts to three evictions to one compaction.
        fn op() -> impl Strategy<Value = Op> {
            (
                0u8..10,
                0u64..60,
                proptest::collection::vec(0usize..24, 1..7),
                0usize..64,
            )
                .prop_map(|(kind, id, toks, n)| match kind {
                    0..=5 => Op::Insert(id, toks),
                    6..=8 => Op::Evict(n),
                    _ => Op::Compact,
                })
        }

        proptest! {
            /// Long random insert / re-delivered id / evict / compact
            /// sequences move regions, slide them and compact the arena,
            /// and the index stays sound, complete and laid out.
            #[test]
            fn postings_stay_two_sided_consistent(
                ops in proptest::collection::vec(op(), 200..600),
            ) {
                let mut tb = TweetBase::new();
                for op in ops {
                    match op {
                        Op::Insert(id, toks) => {
                            let toks: Vec<String> =
                                toks.iter().map(|t| format!("t{t}")).collect();
                            let toks: Vec<&str> = toks.iter().map(String::as_str).collect();
                            tb.insert(rec_with(id, &toks));
                        }
                        Op::Evict(n) => {
                            let live: Vec<usize> = tb.iter_indexed().map(|(i, _)| i).collect();
                            if !live.is_empty() {
                                tb.evict(live[n % live.len()]);
                            }
                        }
                        Op::Compact => {
                            tb.compact();
                        }
                    }
                    prop_assert!(tb.check_postings().is_ok(), "{:?}", tb.check_postings());
                }
            }
        }
    }
}
