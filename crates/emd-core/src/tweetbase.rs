//! TweetBase: per-sentence records maintained across the pipeline.
//!
//! Indexed by `(tweet id, sentence id)` pairs, a record stores the
//! sentence as its symbols, not its text: one interned symbol per token
//! for the scan, and the sentence's casing profile ([`Cased`]: one
//! [`CapShape`] byte per token and the casing bit) for the syntactic
//! class of a non-deep system's mentions. Beside them it keeps the spans
//! the local system detected and the mention list that Global EMD
//! updates as the sentences pass through the second phase; the token
//! embeddings produced at Local EMD (deep systems only) live in the
//! store's arena. Global EMD never reads a stored sentence's text, so
//! [`TweetBase::insert`] borrows the sentence and keeps none of it.
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
//! [`TweetRecord::tok_syms`], in the same pass that takes its shape; the
//! occurrence scan, the inverted index, and the CTrie walk all operate on
//! those `u32` symbols — the per-scan `to_lowercase()` string churn of
//! the original layout is gone. The
//! inverted index keeps every symbol's posting list as a region of one
//! `u32` arena (see [`Postings`]), and token-embedding matrices live in
//! one flat `f32` arena (`emb_arena`) with per-record row offsets instead
//! of a heap allocation per sentence.
//!
//! [`TweetBase::insert`] copies the embedding matrix handed in beside a
//! record into the arena, and stored records answer through
//! [`TweetBase::embedding_view`]. An evicted record's rows stay in the
//! arena as dead floats until [`TweetBase::compact`].
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
//! For 24/7 streams the store is a sliding window: records enter at the
//! back and are evicted from the front, oldest first, and nowhere else.
//! So the live records are a FIFO, and a slot index is a stream position:
//! slot `i` is `slots[i - first]`, where `first` counts the records
//! evicted since the last compaction. Eviction pops the front and leaves
//! every other record's index as it was — the globalizer's dirty set,
//! quarantine set, and the token posting lists all hold slot indices, and
//! none of them need rewriting when a cold record is dropped. It removes
//! the record's posting-list entries and frees its symbol, shape and span
//! storage; its arena rows become dead floats. Ingest appends to a
//! posting list and eviction pops its front, both without a search (see
//! [`Postings`]), and an insert probes the id index once. Sentence ids
//! come from the stream, so the id index keeps std's SipHash
//! (`RandomState`) against crafted collisions. [`TweetBase::compact`]
//! shifts every slot index down by `first` (returning the shift for the
//! caller's slot-keyed sets) and rewrites the arena with live rows only.
//!
//! ## Checkpoints
//!
//! A checkpoint holds the live records, `first`, the interner, the arena
//! and the two counters; the id index and the posting lists are rebuilt
//! from the records at load. A record writes its shapes as one letter
//! per token (see [`Cased`]). The decoder also reads the v3–v7 layouts:
//! up to v7 a record stored its sentence's text, from which it derives
//! the shapes and the casing bit; up to v6 the store kept a `null` slot
//! per evicted record (all of them leading: they become `first`) and
//! stored both indexes, which it ignores.

use emd_nn::matrix::Matrix;
use emd_text::casing::{CapShape, Cased};
use emd_text::intern::{Interner, Sym};
use emd_text::token::{Sentence, SentenceId, Span};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
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
    /// The sentence's id and casing profile: the shape of every token and
    /// the casing bit, which is all a mention's syntactic class reads
    /// (`emd_text::casing::syntactic_class` takes it). No token text.
    pub sentence: Cased,
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
#[derive(Debug, Clone, Default, Serialize)]
pub struct TweetBase {
    /// Live records in stream order, oldest first; slot `i` is
    /// `slots[i - first]`. Records are shared with clones of the store
    /// until written.
    slots: VecDeque<Arc<TweetRecord>>,
    /// Slot index of `slots[0]`: the records evicted since the last
    /// [`TweetBase::compact`].
    first: usize,
    /// Sentence id → slot index, live records only. Rebuilt at load.
    #[serde(skip)]
    index: HashMap<SentenceId, usize>,
    /// The pipeline-wide token interner (symbols shared with the CTrie).
    interner: Interner,
    /// Symbol → strictly ascending live slot indices. Rebuilt at load.
    #[serde(skip)]
    postings: Postings,
    /// Flat row-major token-embedding storage for all live records.
    emb_arena: Vec<f32>,
    /// Arena floats belonging to evicted/replaced records (reclaimed by
    /// [`TweetBase::compact`]).
    emb_dead: usize,
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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
/// - A new record has the largest slot, so an insert above the list's
///   last entry appends without a search; only a replaced record's slot
///   is binary-searched. An append writes into the region's free tail. A
///   list whose region is full slides its entries to the block's start if
///   its dead front is at least half as long as the list, and otherwise
///   moves to the arena's end with double the capacity, leaving its old
///   block dead: amortised O(1).
/// - Window eviction runs oldest-first, so removals overwhelmingly hit a
///   list's front: a removal checks the front entry first, and a front
///   removal just advances `head`. A removal from the middle (a replaced
///   record) is binary-searched and shifts the tail down by one.
/// - A list that empties gives its block up. Blocks given up or left
///   behind by moves are dead space, and the arena compacts itself once
///   dead space exceeds live space (the lists' entries).
///
/// Not part of a checkpoint: load re-indexes the records.
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
    /// deduplicated. A new record has the largest slot, so `i` is
    /// appended without a search when it is above the list's last entry;
    /// only a replaced record's slot is searched for.
    fn insert(&mut self, sym: Sym, i: u32) {
        let s = sym as usize;
        if self.lists.len() <= s {
            self.lists.resize(s + 1, Region::default());
        }
        let r = self.lists[s];
        let list = &self.arena[r.live()];
        let pos = match list.last() {
            Some(&last) if last >= i => match list.binary_search(&i) {
                Ok(_) => return,
                Err(pos) => pos,
            },
            _ => list.len(),
        };
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

    /// Remove `i` from `sym`'s list if present. Eviction is
    /// oldest-first, so `i` is checked against the list's front before
    /// it is searched for.
    fn remove(&mut self, sym: Sym, i: u32) {
        let Some(&r) = self.lists.get(sym as usize) else {
            return;
        };
        let list = &self.arena[r.live()];
        let pos = match list.first() {
            Some(&front) if front == i => 0,
            _ => match list.binary_search(&i) {
                Ok(pos) => pos,
                Err(_) => return,
            },
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

    /// Store `sentence` at the end of the stream order as a record of its
    /// symbols: one pass over its tokens interns each folded token and
    /// takes its shape, and the casing bit follows from the shapes. The
    /// record keeps `local_spans`, and `embeddings` (the Local EMD token
    /// embeddings of deep systems) are copied into the arena. Replaces any
    /// previous record with the same id in its slot (streams should not
    /// repeat ids); the replaced record's posting-list entries are removed
    /// before the new sentence is indexed, so postings never go stale or
    /// unsorted. A replacement inherits, as `retired`, the pooled spans of
    /// the old record whose folded surface it repeats, so a re-delivered
    /// sentence does not pool its mentions a second time.
    ///
    /// Returns the record's slot and the record it replaced, if any. The
    /// id index is probed once.
    pub fn insert(
        &mut self,
        sentence: &Sentence,
        local_spans: Vec<Span>,
        embeddings: Option<&Matrix>,
    ) -> (usize, Option<Arc<TweetRecord>>) {
        let mut tok_syms = Vec::with_capacity(sentence.len());
        let mut shapes = Vec::with_capacity(sentence.len());
        for t in &sentence.tokens {
            tok_syms.push(self.interner.intern_folded(&t.text));
            shapes.push(CapShape::of(&t.text));
        }
        let emb = embeddings.map(|m| {
            let off = self.emb_arena.len();
            self.emb_arena.extend_from_slice(&m.data);
            EmbSlot {
                off,
                rows: m.rows,
                cols: m.cols,
            }
        });
        let mut record = TweetRecord {
            sentence: Cased::new(sentence.id, shapes),
            local_spans,
            global_mentions: Vec::new(),
            retired: Vec::new(),
            tok_syms,
            emb,
        };
        let next = self.n_slots();
        let i = *self.index.entry(sentence.id).or_insert(next);
        let replaced = if i < next {
            // Replacement: drop the old sentence's postings first. Pushing
            // the new tokens directly would re-append index `i` *after*
            // any later records' indices (the old tail-only dedup produced
            // unsorted, duplicated lists like `[0, 1, 0]`).
            let old = Arc::clone(&self.slots[i - self.first]);
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
            self.slots[i - self.first] = Arc::new(record);
            Some(old)
        } else {
            self.slots.push_back(Arc::new(record));
            None
        };
        self.add_postings(i);
        (i, replaced)
    }

    /// Index every distinct symbol of slot `i`'s sentence, keeping each
    /// posting list strictly ascending. Uses the reusable scratch buffer —
    /// no per-call allocation once warm.
    fn add_postings(&mut self, i: usize) {
        let mut keys = std::mem::take(&mut self.scratch_syms);
        keys.clear();
        keys.extend_from_slice(&self.get_by_index(i).tok_syms);
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
        let slot = self.slots.get(i.checked_sub(self.first)?)?.emb?;
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
        &self.slots[i - self.first]
    }

    /// The shared record in slot `i` (same liveness contract as
    /// [`TweetBase::get_by_index`]). While the handle lives, a write to
    /// the slot copies the record.
    pub(crate) fn shared_by_index(&self, i: usize) -> Arc<TweetRecord> {
        Arc::clone(&self.slots[i - self.first])
    }

    /// Mutable record by stream-order index (same liveness contract as
    /// [`TweetBase::get_by_index`]). Copies the record first if a clone
    /// of the store still shares it.
    pub fn get_mut_by_index(&mut self, i: usize) -> &mut TweetRecord {
        Arc::make_mut(&mut self.slots[i - self.first])
    }

    /// Stream-order index for a sentence id (live records only).
    pub fn index_of(&self, id: SentenceId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Lookup by sentence id.
    pub fn get(&self, id: SentenceId) -> Option<&TweetRecord> {
        Some(self.get_by_index(self.index_of(id)?))
    }

    /// Mutable lookup by sentence id (copy-on-write, like
    /// [`TweetBase::get_mut_by_index`]).
    pub fn get_mut(&mut self, id: SentenceId) -> Option<&mut TweetRecord> {
        let i = self.index_of(id)?;
        Some(self.get_mut_by_index(i))
    }

    /// Live records in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &TweetRecord> {
        self.slots.iter().map(|r| &**r)
    }

    /// Live `(slot index, record)` pairs in stream order. Use this instead
    /// of `iter().enumerate()` when positions must align with the dirty /
    /// quarantine sets (slot indices start at [`TweetBase::first_slot`],
    /// not at 0).
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &TweetRecord)> {
        (self.first..).zip(self.iter())
    }

    /// Number of live sentences stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no live sentences are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot index of the oldest live record: the records evicted since
    /// the last [`TweetBase::compact`].
    pub fn first_slot(&self) -> usize {
        self.first
    }

    /// The stream-order index space: the evicted slots before
    /// [`TweetBase::first_slot`] plus the live ones (`len() <= n_slots()`).
    pub fn n_slots(&self) -> usize {
        self.first + self.slots.len()
    }

    /// Cumulative evictions over the lifetime of the store.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Evict the oldest live record: remove its posting-list entries and
    /// its id mapping. Every other record keeps its slot index. The record
    /// is handed back as stored — still shared with any clone of the
    /// store — and its embedding rows stay in the arena as dead floats
    /// until [`TweetBase::compact`]. `None` when the store is empty.
    pub fn evict_oldest(&mut self) -> Option<Arc<TweetRecord>> {
        let record = self.slots.pop_front()?;
        self.remove_record_postings(self.first, &record);
        self.first += 1;
        self.index.remove(&record.sentence.id);
        self.evicted_total += 1;
        Some(record)
    }

    /// Shift every slot index down by [`TweetBase::first_slot`], so the
    /// oldest live record is slot 0 again, and rewrite the embedding arena
    /// with live rows only (reclaiming the dead floats of evicted and
    /// replaced records). Returns the shift, which callers subtract from
    /// their own slot-keyed sets: 0 when nothing was evicted since the
    /// last compaction.
    pub fn compact(&mut self) -> usize {
        let shift = std::mem::take(&mut self.first);
        if shift > 0 {
            for i in self.index.values_mut() {
                *i -= shift;
            }
            let by = to_u32(shift);
            self.postings.rebuild(|i| i - by);
        }
        if self.emb_dead > 0 {
            // Bit-for-bit copies: compaction must not perturb any
            // downstream f32 result. Only records whose rows actually move
            // are written (and so unshared).
            let mut arena = Vec::with_capacity(self.emb_arena.len() - self.emb_dead);
            for record in &mut self.slots {
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
        }
        shift
    }

    /// Check the posting index both ways, and its arena layout. Sound:
    /// every list is strictly ascending and names only live records whose
    /// symbols hold its token. Complete: every symbol of every live
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
                let i = i as usize;
                if !(self.first..self.n_slots()).contains(&i) {
                    return Err(format!(
                        "posting for {token:?} names slot {i}, not live ({}..{})",
                        self.first,
                        self.n_slots()
                    ));
                }
                let rec = self.get_by_index(i);
                if !rec.tok_syms.contains(&(sym as Sym)) {
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

    /// Estimated resident heap bytes of the store: record blocks, the
    /// token-embedding arena (the dominant term for deep local systems,
    /// including not-yet-compacted dead rows), span lists, symbol and
    /// shape lists, and both indexes. Records shared with a clone
    /// are counted in full: this is what the store alone keeps alive. An
    /// estimate for gauges and eviction budgeting, not an allocator-exact
    /// measurement.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.slots.capacity() * size_of::<Arc<TweetRecord>>();
        for r in &self.slots {
            // The shared block: the record plus its two reference counts.
            total += size_of::<TweetRecord>() + 2 * size_of::<usize>();
            total += std::mem::size_of_val(r.sentence.shapes());
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

/// Decodes the checkpoint layout (see the module docs): the live records
/// after `first`, or, from a v3–v6 tree, after one leading `null` per
/// evicted slot. A `null` after a live record, a sentence id stored
/// twice, or a record whose shapes and symbols differ in number, is
/// rejected. The id index and the posting lists are rebuilt
/// from the records; a stored `index`, `postings` or `live` is not read.
impl Deserialize for TweetBase {
    fn from_value(v: &Value) -> Result<TweetBase, DeError> {
        fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
            match v.get_field(name) {
                Some(fv) => T::from_value(fv),
                None => Err(DeError::msg(format!(
                    "missing field `{name}` in `TweetBase`"
                ))),
            }
        }
        let stored: Vec<Option<Arc<TweetRecord>>> = field(v, "slots")?;
        let lead = stored.iter().take_while(|s| s.is_none()).count();
        let first = match v.get_field("first") {
            Some(f) => usize::from_value(f)?,
            None => 0,
        };
        // The posting lists hold slot indices as `u32`.
        first
            .checked_add(stored.len())
            .and_then(|end| u32::try_from(end).ok())
            .ok_or_else(|| DeError::msg("slot indices past u32"))?;
        let mut tb = TweetBase {
            first: first + lead,
            interner: field(v, "interner")?,
            emb_arena: field(v, "emb_arena")?,
            emb_dead: field(v, "emb_dead")?,
            evicted_total: field(v, "evicted_total")?,
            ..TweetBase::default()
        };
        tb.slots.reserve(stored.len() - lead);
        for record in stored.into_iter().skip(lead) {
            let record =
                record.ok_or_else(|| DeError::msg("an evicted slot after a live record"))?;
            let id = record.sentence.id;
            if tb.index.insert(id, tb.n_slots()).is_some() {
                return Err(DeError::msg(format!("sentence {id:?} stored twice")));
            }
            let n_shapes = record.sentence.shapes().len();
            if n_shapes != record.tok_syms.len() {
                return Err(DeError::msg(format!(
                    "sentence {id:?} has {n_shapes} shapes for {} symbols",
                    record.tok_syms.len()
                )));
            }
            if record
                .tok_syms
                .iter()
                .any(|&s| s as usize >= tb.interner.len())
            {
                return Err(DeError::msg(format!(
                    "sentence {id:?} holds a symbol the interner lacks"
                )));
            }
            tb.slots.push_back(record);
            tb.add_postings(tb.n_slots() - 1);
        }
        // Lay every list out afresh, as a compaction does.
        tb.postings.rebuild(|i| i);
        Ok(tb)
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

    fn sent(tweet: u64) -> Sentence {
        Sentence::from_tokens(SentenceId::new(tweet, 0), ["a", "b"])
    }

    fn sent_with(tweet: u64, tokens: &[&str]) -> Sentence {
        Sentence::from_tokens(SentenceId::new(tweet, 0), tokens.iter().copied())
    }

    /// Insert a record whose `dim`-wide token embeddings encode its id.
    fn insert_with_emb(tb: &mut TweetBase, tweet: u64, tokens: &[&str], dim: usize) -> usize {
        let rows = tokens.len();
        let data: Vec<f32> = (0..rows * dim)
            .map(|i| tweet as f32 * 100.0 + i as f32)
            .collect();
        let emb = Matrix {
            rows,
            cols: dim,
            data,
        };
        tb.insert(&sent_with(tweet, tokens), vec![], Some(&emb)).0
    }

    /// Every live record's id maps to its slot, and nothing else is
    /// indexed.
    fn assert_ids_indexed(tb: &TweetBase) {
        assert_eq!(tb.index.len(), tb.len());
        for (i, r) in tb.iter_indexed() {
            assert_eq!(tb.index_of(r.sentence.id), Some(i));
        }
    }

    fn assert_postings_consistent(tb: &TweetBase) {
        if let Err(e) = tb.check_postings() {
            panic!("{e}");
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut tb = TweetBase::new();
        tb.insert(&sent(1), vec![], None);
        tb.insert(&sent(2), vec![], None);
        assert_eq!(tb.len(), 2);
        assert!(tb.get(SentenceId::new(1, 0)).is_some());
        assert!(tb.get(SentenceId::new(3, 0)).is_none());
    }

    #[test]
    fn insert_interns_folded_token_symbols() {
        let mut tb = TweetBase::new();
        let (i, _) = tb.insert(&sent_with(1, &["Italy", "reports", "ITALY"]), vec![], None);
        let r = tb.get_by_index(i);
        assert_eq!(r.tok_syms.len(), 3);
        assert_eq!(r.tok_syms[0], r.tok_syms[2], "case variants share a sym");
        assert_eq!(tb.interner().resolve(r.tok_syms[0]), "italy");
    }

    #[test]
    fn duplicate_id_replaces() {
        let mut tb = TweetBase::new();
        assert_eq!(tb.insert(&sent(1), vec![], None).0, 0);
        let (i, old) = tb.insert(&sent(1), vec![Span::new(0, 1)], None);
        assert_eq!(i, 0, "a replacement keeps its slot");
        let old = old.expect("the replaced record is handed back");
        assert!(old.local_spans.is_empty());
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.get(SentenceId::new(1, 0)).unwrap().local_spans.len(), 1);
    }

    #[test]
    fn extraction_changes_retire_and_restore_pooled_spans() {
        let mut tb = TweetBase::new();
        let (i, _) = tb.insert(&sent_with(1, &["a", "b", "c", "d", "e"]), vec![], None);
        let r = tb.get_mut_by_index(i);
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
        let (i, _) = tb.insert(&sent_with(1, &["Italy", "and", "covid"]), vec![], None);
        tb.get_mut_by_index(i)
            .set_global_mentions(vec![Span::new(0, 1), Span::new(2, 3)]);
        // Re-delivered with one token changed: only the span whose folded
        // surface is unchanged counts as pooled already.
        tb.insert(&sent_with(1, &["ITALY", "and", "flu"]), vec![], None);
        let r = tb.get_by_index(i);
        assert!(r.global_mentions.is_empty());
        assert_eq!(r.retired, vec![Span::new(0, 1)]);
        // A shorter replacement drops spans past its end.
        tb.get_mut_by_index(i)
            .set_global_mentions(vec![Span::new(2, 3)]);
        tb.insert(&sent_with(1, &["italy"]), vec![], None);
        assert_eq!(tb.get_by_index(i).retired, vec![Span::new(0, 1)]);
    }

    #[test]
    fn stream_order_preserved() {
        let mut tb = TweetBase::new();
        for t in [5u64, 2, 9] {
            tb.insert(&sent(t), vec![], None);
        }
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![5, 2, 9]);
    }

    #[test]
    fn token_index_finds_sentences() {
        let mut tb = TweetBase::new();
        tb.insert(&sent_with(1, &["Italy", "report"]), vec![], None);
        tb.insert(&sent_with(2, &["italy", "italy", "again"]), vec![], None);
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
        tb.insert(&sent_with(1, &["old", "text"]), vec![], None);
        tb.insert(&sent_with(1, &["new", "text"]), vec![], None);
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
        tb.insert(&sent_with(1, &["shared", "alpha"]), vec![], None);
        tb.insert(&sent_with(2, &["shared", "beta"]), vec![], None);
        // Replace record 0 with a sentence still containing "shared".
        tb.insert(&sent_with(1, &["shared", "gamma"]), vec![], None);
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
        tb.insert(&sent_with(1, &["delta"]), vec![], None);
        assert_eq!(with_token(&tb, "shared"), &[1]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn by_index_accessors() {
        let mut tb = TweetBase::new();
        tb.insert(&sent(7), vec![], None);
        assert_eq!(tb.index_of(SentenceId::new(7, 0)), Some(0));
        assert_eq!(tb.get_by_index(0).sentence.id.tweet_id, 7);
        tb.get_mut_by_index(0).global_mentions.push(Span::new(0, 1));
        assert_eq!(tb.get_by_index(0).global_mentions.len(), 1);
    }

    #[test]
    fn mutable_update() {
        let mut tb = TweetBase::new();
        tb.insert(&sent(1), vec![], None);
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
        let i1 = insert_with_emb(&mut tb, 1, &["a", "b"], 3);
        let i2 = insert_with_emb(&mut tb, 2, &["c"], 3);
        // The view serves the rows out of the arena.
        let v = tb.embedding_view(i1).expect("record has embeddings");
        assert_eq!((v.rows, v.cols), (2, 3));
        assert_eq!(v.row(1), &[103.0, 104.0, 105.0]);
        let v2 = tb.embedding_view(i2).unwrap();
        assert_eq!(v2.row(0), &[200.0, 201.0, 202.0]);
        // No-embedding records answer None.
        let (i3, _) = tb.insert(&sent_with(3, &["d"]), vec![], None);
        assert!(tb.embedding_view(i3).is_none());
        // Evict hands the stored record back; its rows stay in the arena.
        let out = tb.evict_oldest().unwrap();
        assert_eq!(out.sentence.id, SentenceId::new(1, 0));
        assert!(tb.embedding_view(i1).is_none());
        // Survivor's view is untouched by the eviction...
        assert_eq!(
            tb.embedding_view(i2).unwrap().row(0),
            &[200.0, 201.0, 202.0]
        );
        // ...and by compaction, which reclaims the dead rows.
        let before = tb.emb_arena.len();
        assert_eq!(tb.compact(), 1);
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
            tb.insert(&sent_with(t, &["a", "b"]), vec![], None);
        }
        let snap = tb.clone();
        let shared =
            |tb: &TweetBase, snap: &TweetBase, i: usize| Arc::ptr_eq(&tb.slots[i], &snap.slots[i]);
        assert!((0..3).all(|i| shared(&tb, &snap, i)));
        // A write copies exactly the written record; the snapshot keeps
        // the old contents.
        tb.get_mut_by_index(1).global_mentions.push(Span::new(0, 1));
        assert!(snap.get_by_index(1).global_mentions.is_empty());
        assert_eq!(tb.get_by_index(1).global_mentions.len(), 1);
        assert!(!shared(&tb, &snap, 1));
        assert!(shared(&tb, &snap, 0) && shared(&tb, &snap, 2));
        // Eviction hands back the shared record itself, uncopied, and the
        // snapshot keeps it.
        let out = tb.evict_oldest().unwrap();
        assert!(Arc::ptr_eq(&out, &snap.slots[0]));
        assert_eq!((snap.len(), snap.first_slot()), (3, 0));
    }

    #[test]
    fn evict_frees_record_and_postings() {
        let mut tb = TweetBase::new();
        tb.insert(&sent_with(1, &["cold", "shared"]), vec![], None);
        tb.insert(&sent_with(2, &["hot", "shared"]), vec![], None);
        let evicted = tb.evict_oldest().expect("slot 0 live");
        assert_eq!(evicted.sentence.id, SentenceId::new(1, 0));
        assert_eq!(tb.len(), 1);
        assert_eq!(tb.n_slots(), 2, "indices stay stable after eviction");
        assert_eq!(tb.first_slot(), 1);
        assert_eq!(tb.evicted_total(), 1);
        assert!(tb.get(SentenceId::new(1, 0)).is_none());
        assert_eq!(tb.get_by_index(1).sentence.id, SentenceId::new(2, 0));
        assert_eq!(with_token(&tb, "cold"), &[] as &[u32]);
        assert_eq!(with_token(&tb, "shared"), &[1]);
        assert_postings_consistent(&tb);
        assert_ids_indexed(&tb);
        // Evicting from an empty store is a no-op.
        tb.evict_oldest().expect("slot 1 live");
        assert!(tb.evict_oldest().is_none());
        assert_eq!((tb.evicted_total(), tb.n_slots()), (2, 2));
    }

    #[test]
    fn eviction_preserves_live_iteration_and_indices() {
        let mut tb = TweetBase::new();
        for t in 0..5u64 {
            tb.insert(&sent_with(t, &["tok"]), vec![], None);
        }
        tb.evict_oldest();
        tb.evict_oldest();
        let live: Vec<(usize, u64)> = tb
            .iter_indexed()
            .map(|(i, r)| (i, r.sentence.id.tweet_id))
            .collect();
        assert_eq!(live, vec![(2, 2), (3, 3), (4, 4)]);
        assert_eq!(with_token(&tb, "tok"), &[2, 3, 4]);
        assert_ids_indexed(&tb);
    }

    #[test]
    fn reinserting_an_evicted_id_appends_fresh() {
        let mut tb = TweetBase::new();
        tb.insert(&sent_with(1, &["one"]), vec![], None);
        tb.insert(&sent_with(2, &["two"]), vec![], None);
        tb.evict_oldest();
        let (i, old) = tb.insert(&sent_with(1, &["one", "again"]), vec![], None);
        assert_eq!(i, 2, "an evicted id re-enters at the stream tail");
        assert!(old.is_none(), "an evicted record is not replaced");
        assert_eq!(with_token(&tb, "one"), &[2]);
        assert_postings_consistent(&tb);
    }

    #[test]
    fn compact_shifts_slots_down_by_the_evicted_count() {
        let mut tb = TweetBase::new();
        for t in 0..6u64 {
            tb.insert(&sent_with(t, &["tok", &format!("w{t}")]), vec![], None);
        }
        for _ in 0..3 {
            tb.evict_oldest();
        }
        assert_eq!(tb.compact(), 3);
        assert_eq!((tb.first_slot(), tb.n_slots()), (0, 3));
        assert_eq!(tb.len(), 3);
        assert_eq!(
            tb.evicted_total(),
            3,
            "cumulative count survives compaction"
        );
        let ids: Vec<u64> = tb.iter().map(|r| r.sentence.id.tweet_id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
        assert_eq!(with_token(&tb, "tok"), &[0, 1, 2]);
        assert_eq!(with_token(&tb, "w4"), &[1]);
        assert_eq!(tb.index_of(SentenceId::new(4, 0)), Some(1));
        assert_postings_consistent(&tb);
        assert_ids_indexed(&tb);
        // Nothing evicted since: nothing to shift.
        assert_eq!(tb.compact(), 0);
    }

    #[test]
    fn resident_bytes_shrinks_on_eviction() {
        let mut tb = TweetBase::new();
        for t in 0..8u64 {
            tb.insert(
                &sent_with(t, &["some", "reasonably", "long", "sentence", "tokens"]),
                vec![],
                None,
            );
        }
        let before = tb.resident_bytes();
        for _ in 0..6 {
            tb.evict_oldest();
        }
        let after = tb.resident_bytes();
        assert!(
            after < before,
            "eviction must shrink resident bytes: {before} -> {after}"
        );
    }

    /// Decode `tb`'s checkpoint text.
    fn reload(tb: &TweetBase) -> TweetBase {
        serde_json::from_str(&serde_json::to_string(tb).unwrap()).unwrap()
    }

    #[test]
    fn checkpoints_hold_records_and_load_rebuilds_the_indexes() {
        let mut tb = TweetBase::new();
        for t in 0..7u64 {
            tb.insert(
                &sent_with(t, &["tok", &format!("w{}", t % 3), "tok"]),
                vec![],
                None,
            );
        }
        tb.insert(&sent_with(2, &["again"]), vec![], None);
        tb.evict_oldest();
        tb.evict_oldest();
        let json = serde_json::to_string(&tb).unwrap();
        for gone in ["\"index\"", "\"postings\"", "\"live\"", "token_embeddings"] {
            assert!(!json.contains(gone), "{gone} in {json}");
        }
        assert!(json.contains("\"first\":2,"));
        let back = reload(&tb);
        assert_eq!((back.first_slot(), back.n_slots()), (2, 7));
        assert_postings_consistent(&back);
        assert_ids_indexed(&back);
        assert_eq!(with_token(&back, "tok"), &[3, 4, 5, 6]);
        assert_eq!(with_token(&back, "again"), &[2]);
        // Laid out as a rebuild lays out the live index.
        let mut laid = tb.postings.clone();
        laid.rebuild(|i| i);
        assert_eq!(back.postings.lists, laid.lists);
        assert_eq!(back.postings.arena, laid.arena);
        assert_eq!(back.postings.live, laid.live);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn records_keep_shapes_not_text_and_older_records_derive_them() {
        let mut tb = TweetBase::new();
        let tokens = ["Italy", "reports", "COVID", "iPhone", "#19", "Straße"];
        tb.insert(&sent_with(1, &tokens), vec![Span::new(0, 1)], None);
        let r = tb.get_by_index(0);
        assert_eq!(r.sentence, Cased::of(&sent_with(1, &tokens)));
        assert!(r.sentence.casing_informative());
        let json = serde_json::to_string(&tb).unwrap();
        assert!(json.contains(r#""shapes":"ILUMNI""#), "{json}");
        assert!(
            !json.contains("Straße\"") && !json.contains("tokens"),
            "{json}"
        );
        assert_eq!(reload(&tb).get_by_index(0).sentence, r.sentence);
        // Up to v7 a record stored its sentence's text.
        let text = serde_json::to_string(&sent_with(1, &tokens)).unwrap();
        let old = json.replace(
            r#"{"id":{"tweet_id":1,"sent_id":0},"shapes":"ILUMNI"}"#,
            &text,
        );
        assert_ne!(old, json);
        let back: TweetBase = serde_json::from_str(&old).unwrap();
        assert_eq!(back.get_by_index(0).sentence, r.sentence);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // A uniformly cased sentence's bit survives the round trip too.
        tb.insert(&sent_with(2, &["ALL", "CAPS", "HERE"]), vec![], None);
        assert!(!tb.get_by_index(1).sentence.casing_informative());
        assert!(!reload(&tb).get_by_index(1).sentence.casing_informative());
    }

    #[test]
    fn decoding_reads_leading_nulls_and_rejects_malformed_stores() {
        let tb: TweetBase = serde_json::from_str(
            r#"{"slots":[null,null,{"sentence":{"id":{"tweet_id":5,"sent_id":0},"tokens":[]},
                "local_spans":[],"global_mentions":[],"retired":[],"tok_syms":[],"emb":null}],
                "interner":[],"emb_arena":[],"emb_dead":0,"evicted_total":2,
                "postings":"not read","index":"not read","live":99}"#,
        )
        .unwrap();
        assert_eq!((tb.first_slot(), tb.n_slots()), (2, 3));
        assert_eq!(tb.index_of(SentenceId::new(5, 0)), Some(2));
        let record = r#"{"sentence":{"id":{"tweet_id":5,"sent_id":0},"shapes":""},
            "local_spans":[],"global_mentions":[],"retired":[],"tok_syms":[],"emb":null}"#;
        let decode = |slots: String| {
            serde_json::from_str::<TweetBase>(&format!(
                r#"{{"slots":{slots},"interner":[],"emb_arena":[],"emb_dead":0,"evicted_total":0}}"#
            ))
        };
        assert!(decode(format!("[{record}]")).is_ok());
        let late_null = decode(format!("[{record},null]")).unwrap_err();
        assert!(
            late_null.to_string().contains("evicted slot after"),
            "{late_null}"
        );
        let twice = decode(format!("[{record},{record}]")).unwrap_err();
        assert!(twice.to_string().contains("stored twice"), "{twice}");
        let unknown = decode(format!(
            "[{}]",
            record
                .replace("\"tok_syms\":[]", "\"tok_syms\":[0]")
                .replace(r#""shapes":"""#, r#""shapes":"L""#)
        ))
        .unwrap_err();
        assert!(unknown.to_string().contains("interner lacks"), "{unknown}");
        let uneven = decode(format!(
            "[{}]",
            record.replace(r#""shapes":"""#, r#""shapes":"L""#)
        ))
        .unwrap_err();
        assert!(
            uneven.to_string().contains("1 shapes for 0 symbols"),
            "{uneven}"
        );
        let letter = decode(format!(
            "[{}]",
            record.replace(r#""shapes":"""#, r#""shapes":"x""#)
        ))
        .unwrap_err();
        assert!(
            letter.to_string().contains("unknown token shape"),
            "{letter}"
        );
        let far = serde_json::from_str::<TweetBase>(&format!(
            r#"{{"slots":[{record}],"first":4294967295,"interner":[],"emb_arena":[],"emb_dead":0,"evicted_total":0}}"#
        ))
        .unwrap_err();
        assert!(far.to_string().contains("past u32"), "{far}");
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

    #[test]
    fn postings_append_ascending_and_ignore_repeats() {
        let mut p = Postings::default();
        for i in 0..10 {
            p.insert(3, i);
        }
        assert_eq!(p.get(3), &(0..10).collect::<Vec<_>>()[..]);
        assert_eq!(p.live, 10);
        // A repeat at the tail, in the middle or at the front is a no-op.
        for i in [9, 5, 0] {
            p.insert(3, i);
        }
        assert_eq!(p.get(3), &(0..10).collect::<Vec<_>>()[..]);
        assert_eq!(p.live, 10);
        // Symbols below 3 were never seen.
        assert_eq!(p.get(0), &[] as &[u32]);
    }

    #[test]
    fn postings_insert_a_replaced_slot_in_the_middle() {
        let mut p = Postings::default();
        for i in [0, 2, 7] {
            p.insert(0, i);
        }
        p.insert(0, 1);
        p.insert(0, 5);
        assert_eq!(p.get(0), &[0, 1, 2, 5, 7]);
        // Below the front too.
        p.remove(0, 0);
        p.insert(0, 0);
        assert_eq!(p.get(0), &[0, 1, 2, 5, 7]);
        assert_eq!(p.live, 5);
    }

    #[test]
    fn postings_remove_at_the_front_in_the_middle_or_not_at_all() {
        let mut p = Postings::default();
        for i in 0..6 {
            p.insert(1, i);
        }
        // Front removals advance the head.
        p.remove(1, 0);
        p.remove(1, 1);
        assert_eq!((p.lists[1].head, p.get(1)), (2, &[2, 3, 4, 5][..]));
        // A middle removal shifts the tail down.
        p.remove(1, 4);
        assert_eq!((p.lists[1].head, p.get(1)), (2, &[2, 3, 5][..]));
        // Absent entries: below the front, between entries, past the
        // tail, and in lists that hold nothing.
        let before = p.clone();
        for (sym, i) in [(1, 0), (1, 4), (1, 9), (0, 3), (7, 3)] {
            p.remove(sym, i);
        }
        assert_eq!(p.get(1), before.get(1));
        assert_eq!((p.live, p.dead, p.lists.len()), (3, before.dead, 2));
        // The last entry gives the block up.
        for i in [2, 3, 5] {
            p.remove(1, i);
        }
        assert_eq!((p.lists[1], p.live), (Region::default(), 0));
    }

    mod props {
        use super::*;
        use emd_text::casing::{sentence_casing_uninformative, syntactic_class, SyntacticClass};
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Insert tweet `id` with tokens drawn from a small vocabulary,
            /// in two casings (a re-delivered id replaces its record).
            Insert(u64, Vec<usize>),
            /// Evict the oldest live record.
            Evict,
            Compact,
            /// Save and load the store.
            Reload,
        }

        /// Six inserts to three evictions to one compaction to one
        /// reload.
        fn op() -> impl Strategy<Value = Op> {
            (
                0u8..11,
                0u64..60,
                proptest::collection::vec(0usize..24, 1..7),
            )
                .prop_map(|(kind, id, toks)| match kind {
                    0..=5 => Op::Insert(id, toks),
                    6..=8 => Op::Evict,
                    9 => Op::Compact,
                    _ => Op::Reload,
                })
        }

        /// The syntactic class as it was computed from a sentence's text
        /// before records stored their profiles, kept verbatim as the
        /// oracle for the stored profile.
        fn reference_uninformative(sentence: &Sentence) -> bool {
            let mut shapes = Vec::new();
            for t in sentence.texts() {
                let sh = CapShape::of(t);
                if sh != CapShape::NonAlpha {
                    shapes.push(sh);
                }
            }
            if shapes.len() < 2 {
                return false;
            }
            shapes.iter().all(|s| *s == CapShape::AllLower)
                || shapes.iter().all(|s| *s == CapShape::AllUpper)
                || shapes
                    .iter()
                    .all(|s| *s == CapShape::Init || *s == CapShape::AllUpper)
        }

        fn reference_class(sentence: &Sentence, span: &Span) -> SyntacticClass {
            if reference_uninformative(sentence) {
                return SyntacticClass::NonDiscriminative;
            }
            let shapes: Vec<CapShape> = (span.start..span.end)
                .map(|i| CapShape::of(&sentence.tokens[i].text))
                .collect();
            let alpha: Vec<CapShape> = shapes
                .iter()
                .copied()
                .filter(|s| *s != CapShape::NonAlpha)
                .collect();
            if alpha.is_empty() {
                return SyntacticClass::NonDiscriminative;
            }
            if alpha.iter().all(|s| *s == CapShape::AllUpper) {
                return SyntacticClass::FullCapitalization;
            }
            if alpha.iter().all(|s| *s == CapShape::AllLower) {
                return SyntacticClass::NoCapitalization;
            }
            let all_capitalized = alpha
                .iter()
                .all(|s| matches!(s, CapShape::Init | CapShape::AllUpper | CapShape::Mixed));
            if all_capitalized {
                if span.len() == 1 && span.start == 0 {
                    return SyntacticClass::StartOfSentenceCap;
                }
                return SyntacticClass::ProperCapitalization;
            }
            SyntacticClass::SubstringCapitalization
        }

        /// Words of every shape: mixed case, Unicode case (`ß` has no
        /// one-letter uppercase, `ǆ` has a titlecase form), and tokens
        /// with no letters at all.
        const WORDS: &[&str] = &[
            "italy",
            "iPhone",
            "McDonald",
            "straße",
            "ÉCOLE",
            "σίσυφος",
            "ǆemal",
            "#covid",
            "@UN",
            "4g",
            "x",
            "I",
            "123",
            "!!!",
            "😀",
            "日本",
        ];

        /// `word` recased: 0 lower, 1 upper, 2 title, 3 as written.
        fn recase(word: &str, casing: u8) -> String {
            match casing {
                0 => word.to_lowercase(),
                1 => word.to_uppercase(),
                2 => {
                    let mut chars = word.chars();
                    let first = chars.next().map(|c| c.to_uppercase().collect::<String>());
                    first.unwrap_or_default() + &chars.as_str().to_lowercase()
                }
                _ => word.to_string(),
            }
        }

        proptest! {
            /// For random sentences, uniformly cased or not, the class of
            /// every span read from the record's stored profile, before
            /// and after a checkpoint round trip, equals the class the
            /// text gives, computed as it was before profiles were stored.
            #[test]
            fn stored_profile_classifies_every_span_as_the_text_did(
                style in 0u8..5,
                words in proptest::collection::vec((0usize..WORDS.len(), 0u8..4), 1..9),
            ) {
                let tokens: Vec<String> = words
                    .iter()
                    .map(|&(w, casing)| recase(WORDS[w], if style < 3 { style } else { casing }))
                    .collect();
                let sentence = Sentence::from_tokens(SentenceId::new(1, 0), tokens);
                let mut tb = TweetBase::new();
                tb.insert(&sentence, vec![], None);
                let back = reload(&tb);
                let n = sentence.len();
                prop_assert_eq!(sentence_casing_uninformative(&sentence), reference_uninformative(&sentence));
                for rec in [tb.get_by_index(0), back.get_by_index(0)] {
                    prop_assert_eq!(&rec.sentence, &Cased::of(&sentence));
                    prop_assert_eq!(rec.sentence.casing_informative(), !reference_uninformative(&sentence));
                    for start in 0..n {
                        for end in start + 1..=n {
                            let span = Span::new(start, end);
                            let want = reference_class(&sentence, &span);
                            prop_assert_eq!(syntactic_class(&rec.sentence, &span), want);
                        }
                    }
                }
            }

            /// Long random insert / re-delivered id / evict / compact /
            /// reload sequences move regions, slide them and compact the
            /// arena, and both indexes stay sound, complete and laid out.
            /// A reload keeps every record's casing profile.
            #[test]
            fn postings_stay_two_sided_consistent(
                ops in proptest::collection::vec(op(), 200..600),
            ) {
                let mut tb = TweetBase::new();
                for op in ops {
                    match op {
                        Op::Insert(id, toks) => {
                            let toks: Vec<String> = toks
                                .iter()
                                .map(|t| format!("{}{t}", if t % 3 == 0 { 'T' } else { 't' }))
                                .collect();
                            let toks: Vec<&str> = toks.iter().map(String::as_str).collect();
                            tb.insert(&sent_with(id, &toks), vec![], None);
                        }
                        Op::Evict => {
                            tb.evict_oldest();
                        }
                        Op::Compact => {
                            tb.compact();
                        }
                        Op::Reload => {
                            let back = reload(&tb);
                            prop_assert!(tb.iter().map(|r| &r.sentence).eq(back.iter().map(|r| &r.sentence)));
                            tb = back;
                        }
                    }
                    prop_assert!(tb.check_postings().is_ok(), "{:?}", tb.check_postings());
                    assert_ids_indexed(&tb);
                }
            }
        }
    }
}
