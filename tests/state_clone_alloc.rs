//! Allocation regression tests for the supervisor's per-batch snapshot.
//!
//! `StreamSupervisor` clones the whole `GlobalizerState` before every
//! batch so a batch-level fault can roll back. The sentence records, the
//! candidate records and the interned token strings are shared between
//! the state and its clone (`Arc`, copied on write), and every index is
//! flat storage: the posting lists are regions of one arena, the CTrie's
//! edges one table, the adjacency ledger one table. So a clone makes one
//! allocation per *structure*, however large the window, its vocabulary
//! or its candidate set. The tests pin that with a counting global
//! allocator:
//!
//! - cloning a full 1k-sentence window of 12-token sentences makes fewer
//!   allocations than a quarter of the window's tokens (a deep copy makes
//!   several per record: each holds its own symbol, shape and span lists);
//! - the candidate store's clone makes as many allocations at 5,000
//!   candidates as at 100;
//! - a record keeps its sentence's symbols and casing shapes, not its
//!   text, and span tokens are interned once, so a whole `process_batch`
//!   over a warm vocabulary, under a non-deep local system, makes as many
//!   allocations with 32-token sentences as with 8-token ones;
//! - the whole state's clone makes as many allocations at a 4k window as
//!   at a 1k window, with four times the vocabulary and candidates;
//! - at production scale (`#[ignore]`, run by `ci.sh` with `--ignored`),
//!   the churn-window shape's 20k-window clone makes as many allocations
//!   as a 1k-window one, its posting index is consistent both ways, the
//!   uncompacted state saves and loads back to the same slots, indexes,
//!   per-record casing profiles (the input sentences' token shapes and
//!   casing bits) and checkpoint text, and a trial batch processed on a
//!   clone and discarded leaves the original's checkpoint text and
//!   indexes unchanged.
//!
//! The batch after a clone copies each shared record it writes. A
//! candidate present in every sentence is written by every batch, so its
//! record must not grow with the window: the second test pins that the
//! first batch after a clone allocates about as many fresh bytes at a 4k
//! window as at a 1k window.

use emd_globalizer::core::candidatebase::CandidateBase;
use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::{LexiconEmd, LocalEmd, LocalEmdOutput};
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::local::np_chunker::NpChunker;
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint;
use emd_globalizer::synth::{gen_churn_stream, NoiseConfig, World, WorldConfig};
use emd_globalizer::text::casing::{Cased, SyntacticClass};
use emd_globalizer::text::token::{Sentence, SentenceId, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// System allocator wrapper that counts the allocation calls of threads
/// that opted in, each into its own counter, so tests running on other
/// threads never disturb a count.
struct CountingAlloc;

thread_local! {
    /// `Some((calls, fresh bytes))` while this thread counts.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Count one allocation call; `fresh_bytes` is the size of a fresh block
/// (zero for a reallocation, see [`count_alloc_bytes`]).
fn note_alloc(fresh_bytes: usize) {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + fresh_bytes))));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, allocs, _) = count_alloc_bytes(f);
    (out, allocs)
}

/// Allocations, and bytes in fresh blocks, that `f` makes on this
/// thread. Copying a shared record allocates fresh blocks. Growing a
/// vector reallocates it; the vectors a clone made exactly full (the slot
/// vector, the posting lists) grow by O(window) on the next batch in any
/// design, so reallocations count as calls but not as bytes.
fn count_alloc_bytes<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (allocs, bytes) = COUNT.with(|c| c.take()).unwrap_or((0, 0));
    (out, allocs, bytes)
}

const VOCAB: usize = 600;
const TOKENS: usize = 12;
const WINDOW: usize = 1_000;

/// `n` sentences of `TOKENS` tokens drawn from a `VOCAB`-word vocabulary
/// by a fixed LCG, every third token capitalised.
fn stream(n: usize) -> Vec<Sentence> {
    stream_over(n, VOCAB)
}

/// [`stream`] over a `vocab`-word vocabulary.
fn stream_over(n: usize, vocab: usize) -> Vec<Sentence> {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|i| {
            let toks = (0..TOKENS).map(|j| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let mut t = format!("w{}", (x >> 33) as usize % vocab);
                if (i + j) % 3 == 0 {
                    t.make_ascii_uppercase();
                }
                t
            });
            Sentence::from_tokens(SentenceId::new(i as u64, 0), toks)
        })
        .collect()
}

#[test]
fn state_clone_allocates_per_structure_not_per_token() {
    // Every tenth word is an entity to the local system.
    let local = LexiconEmd::new((0..VOCAB).step_by(10).map(|w| format!("w{w}")));
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    let g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(WINDOW),
            ..Default::default()
        },
    );
    let mut state = g.new_state();
    for chunk in stream(3_000).chunks(128) {
        g.process_batch(&mut state, chunk);
    }
    assert_eq!(state.tweetbase.len(), WINDOW, "the window is full");
    assert!(state.n_evicted() > 0, "the window has rolled");
    assert!(!state.candidates.is_empty());

    let (copy, allocs) = count_allocs(|| state.clone());
    let window_tokens = WINDOW * TOKENS;
    assert!(
        allocs < window_tokens / 4,
        "cloning the state made {allocs} allocations for {window_tokens} tokens in the window"
    );
    assert_eq!(copy.tweetbase.len(), WINDOW);
    assert_eq!(copy.candidates.len(), state.candidates.len());
}

/// The candidate store after an unbounded run over `n` sentences that
/// each mention a candidate of their own.
fn store_of(n: usize) -> CandidateBase {
    let local = LexiconEmd::new((0..n).map(|i| format!("e{i}")));
    let clf = EntityClassifier::new(7, 0);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let sentences: Vec<Sentence> = (0..n)
        .map(|i| {
            Sentence::from_tokens(
                SentenceId::new(i as u64, 0),
                [format!("E{i}"), "speaks".into()],
            )
        })
        .collect();
    let mut state = g.new_state();
    for chunk in sentences.chunks(500) {
        g.process_batch(&mut state, chunk);
    }
    state.candidates
}

#[test]
fn candidate_store_clone_allocates_the_same_at_any_size() {
    let (small, large) = (store_of(100), store_of(5_000));
    assert_eq!((small.len(), large.len()), (100, 5_000));
    let (_, at_small) = count_allocs(|| small.clone());
    let (_, at_large) = count_allocs(|| large.clone());
    assert_eq!(
        at_small, at_large,
        "cloning 100 candidates made {at_small} allocations, 5,000 made {at_large}"
    );
}

/// A non-deep local system that proposes tokens 0 and 2 of every
/// sentence, allocating only the span list.
struct FirstAndThird;

impl LocalEmd for FirstAndThird {
    fn name(&self) -> &str {
        "first-and-third"
    }

    fn embedding_dim(&self) -> Option<usize> {
        None
    }

    fn process(&self, _: &Sentence) -> LocalEmdOutput {
        LocalEmdOutput {
            spans: vec![Span::new(0, 1), Span::new(2, 3)],
            token_embeddings: None,
        }
    }
}

/// Allocations one `process_batch` of 64 sentences of `len` tokens makes,
/// run on one thread after a warm-up batch has interned every word,
/// registered every candidate and grown the scratch space. A sentence
/// holds the 4 candidate words once each (in rotation, capitalised words
/// included) and then the 4 filler words no candidate contains, repeated
/// to length, so every length yields the same distinct symbols, mentions,
/// local embeddings and pooling.
fn batch_allocs(len: usize) -> usize {
    const WORDS: [&str; 4] = ["Italy", "COVID", "iPhone", "today"];
    const FILLER: [&str; 4] = ["the", "and", "of", "a"];
    let sentence = |i: usize, len: usize| {
        let words = (0..WORDS.len()).map(|j| WORDS[(i + j) % WORDS.len()]);
        let filler = (0..len - WORDS.len()).map(|j| FILLER[(i + j) % FILLER.len()]);
        Sentence::from_tokens(SentenceId::new(i as u64, 0), words.chain(filler))
    };
    let local = FirstAndThird;
    let clf = accept_all(7);
    let g = Globalizer::new(&local, None, &clf, GlobalizerConfig::default());
    let mut state = g.new_state();
    let warm: Vec<Sentence> = (1_000..1_064).map(|i| sentence(i, 32)).collect();
    g.process_batch_parallel(&mut state, &warm, 1);
    assert_eq!(state.candidates.len(), WORDS.len());
    let batch: Vec<Sentence> = (0..64).map(|i| sentence(i, len)).collect();
    let ((), allocs) = count_allocs(|| g.process_batch_parallel(&mut state, &batch, 1));
    assert_eq!(state.tweetbase.len(), 128);
    assert_eq!(state.candidates.len(), WORDS.len(), "no new candidate");
    allocs
}

/// A record keeps its sentence's symbols and casing shapes, not its
/// text, and trie registration reads a span's symbols off its record, so
/// a batch over a warm vocabulary allocates per sentence, not per token.
#[test]
fn batch_allocates_per_sentence_not_per_token() {
    let (short, long) = (batch_allocs(8), batch_allocs(32));
    assert_eq!(
        short, long,
        "a batch of 64 sentences made {short} allocations at 8 tokens, {long} at 32"
    );
}

/// Fresh-block bytes the first batch after a clone allocates, at a full
/// `window`, on a stream where one candidate ("hot") occurs in every
/// sentence. The batch runs on the clone, as the supervisor's trial does.
fn first_batch_bytes_after_clone(window: usize) -> usize {
    const BATCH: usize = 100;
    let local = LexiconEmd::new(["hot"]);
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    let g = Globalizer::new(
        &local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(window),
            ..Default::default()
        },
    );
    let sentences: Vec<Sentence> = stream(window + 2 * BATCH)
        .into_iter()
        .map(|s| {
            let toks = std::iter::once("Hot".to_string()).chain(s.texts().map(String::from));
            Sentence::from_tokens(s.id, toks)
        })
        .collect();
    let (warm, next) = sentences.split_at(window + BATCH);
    let mut state = g.new_state();
    for chunk in warm.chunks(BATCH) {
        g.process_batch(&mut state, chunk);
    }
    assert_eq!(state.tweetbase.len(), window, "the window is full");
    assert!(state.n_evicted() > 0, "the window has rolled");
    let hot = state
        .candidates
        .get(state.candidate_id("hot").unwrap())
        .unwrap()
        .frequency();
    assert_eq!(hot, window + BATCH, "the candidate is in every sentence");
    let mut trial = state.clone();
    let slots = trial.tweetbase.n_slots();
    let ((), _, bytes) = count_alloc_bytes(|| g.process_batch(&mut trial, next));
    assert!(
        trial.tweetbase.n_slots() > slots,
        "the measured batch must not compact"
    );
    bytes
}

/// Copy-on-write cost per batch does not grow with the window: a batch
/// that pools one more mention into a candidate present in every
/// sentence copies that candidate's record, and the record holds counts,
/// not a list of its mentions.
#[test]
fn first_batch_after_clone_allocates_independently_of_window() {
    let small = first_batch_bytes_after_clone(WINDOW);
    let large = first_batch_bytes_after_clone(4 * WINDOW);
    assert!(
        (large as f64) < 1.5 * small as f64,
        "first batch after a clone allocated {small} bytes at a {WINDOW}-sentence window \
         but {large} at {}",
        4 * WINDOW
    );
}

/// A classifier over `in_dim` features biased hard enough to accept
/// every candidate.
fn accept_all(in_dim: usize) -> EntityClassifier {
    let mut clf = EntityClassifier::new(in_dim, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

/// The state after `stream` ran through a `window`-sentence sliding
/// window in batches of `batch`, with every candidate accepted.
fn windowed_state(
    local: &dyn LocalEmd,
    clf_dim: usize,
    window: usize,
    stream: &[Sentence],
    batch: usize,
) -> GlobalizerState {
    let clf = accept_all(clf_dim);
    let g = Globalizer::new(
        local,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(window),
            ..Default::default()
        },
    );
    let mut state = g.new_state();
    for chunk in stream.chunks(batch) {
        g.process_batch(&mut state, chunk);
    }
    assert_eq!(state.tweetbase.len(), window, "the window is full");
    assert!(state.n_evicted() > 0, "the window has rolled");
    state
}

/// A full `window` over a stream whose vocabulary (half a word per
/// sentence of window) and candidate set grow with the window.
fn state_at_window(window: usize) -> GlobalizerState {
    let vocab = window / 2;
    let local = LexiconEmd::new((0..vocab).step_by(10).map(|w| format!("w{w}")));
    windowed_state(&local, 7, window, &stream_over(3 * window, vocab), 128)
}

/// Every index is flat storage, so cloning the whole state allocates per
/// structure: the count does not grow with the window, its vocabulary
/// or its candidates.
#[test]
fn whole_state_clone_allocates_the_same_at_any_window() {
    let (small, large) = (state_at_window(WINDOW), state_at_window(4 * WINDOW));
    let vocab = |s: &GlobalizerState| s.tweetbase.interner().len();
    assert!(vocab(&large) > 3 * vocab(&small), "the vocabulary grows");
    assert!(
        large.candidates.len() > 3 * small.candidates.len(),
        "the candidates grow"
    );
    assert!(large.ctrie.n_nodes() > 3 * small.ctrie.n_nodes());
    let (_, at_small) = count_allocs(|| small.clone());
    let (_, at_large) = count_allocs(|| large.clone());
    assert_eq!(
        at_small,
        at_large,
        "cloning the state at a {WINDOW}-sentence window made {at_small} allocations, \
         at {} {at_large}",
        4 * WINDOW
    );
}

/// The churn-window shape: the churn stream (world seed 99), NP chunker,
/// accept-all classifier, batches of 512 through a `window`-sentence
/// sliding window, over `n` sentences.
fn churn_stream(n: usize) -> Vec<Sentence> {
    let world = World::generate(&WorldConfig {
        seed: 99,
        ..Default::default()
    });
    gen_churn_stream(&world, n, 5_000, "churn", &NoiseConfig::default(), 3)
        .sentences
        .into_iter()
        .map(|a| a.sentence)
        .collect()
}

/// Both of the sentence store's indexes hold for `state`, and its id
/// index maps every record of `like` to the slot it has there.
fn assert_indexes_hold(state: &GlobalizerState, like: &GlobalizerState, when: &str) {
    if let Err(e) = state.tweetbase.check_postings() {
        panic!("posting index {when}: {e}");
    }
    for (i, rec) in like.tweetbase.iter_indexed() {
        assert_eq!(
            state.tweetbase.index_of(rec.sentence.id),
            Some(i),
            "id index {when}"
        );
    }
}

/// The supervisor's snapshot at production scale: a full 20k window of
/// the churn-window shape, 24,576 sentences in. Its clone allocates as
/// much as a 1k-window clone of the same shape; its posting index is
/// consistent both ways; saved uncompacted and loaded back, it has the
/// same slots, indexes rebuilt to the same mapping, and the same
/// checkpoint text; and a trial batch processed on a clone and then
/// discarded, as a rolled-back batch is, leaves the original's
/// checkpoint text and indexes unchanged.
#[test]
#[ignore = "production scale: run with --release -- --ignored"]
fn churn_window_scale_snapshot_is_flat_and_isolated() {
    const BIG: usize = 20_000;
    const BATCH: usize = 512;
    let chunker = NpChunker::new();
    let dim = SyntacticClass::COUNT + 1;
    let stream = churn_stream(48 * BATCH);
    let (warm, trial_batch) = stream.split_at(stream.len() - BATCH);
    let small = windowed_state(&chunker, dim, WINDOW, &stream[..8 * BATCH], BATCH);
    let state = windowed_state(&chunker, dim, BIG, warm, BATCH);
    if let Err(e) = state.tweetbase.check_postings() {
        panic!("posting index at a {BIG}-sentence window: {e}");
    }

    let (_, at_small) = count_allocs(|| small.clone());
    let (mut trial, at_big) = count_allocs(|| state.clone());
    assert_eq!(
        at_small, at_big,
        "cloning the state at a {WINDOW}-sentence window made {at_small} allocations, \
         at {BIG} {at_big}"
    );

    // A checkpoint holds the records, not the indexes: load rebuilds them.
    let dir = std::env::temp_dir().join(format!("emd_scale_snapshot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (saved, resaved) = (dir.join("saved.ckpt"), dir.join("resaved.ckpt"));
    assert!(
        state.tweetbase.first_slot() > 0,
        "the state is saved uncompacted"
    );
    checkpoint::save(&saved, 47, &state).unwrap();
    let (_, loaded): (u64, GlobalizerState) = checkpoint::load(&saved).unwrap();
    assert_eq!(loaded.tweetbase.n_slots(), state.tweetbase.n_slots());
    assert_indexes_hold(&loaded, &state, "after a save and load");
    // Records keep each token's shape and the casing bit, not the text:
    // the loaded ones equal the saved ones, and both the input's.
    let input: HashMap<SentenceId, &Sentence> = warm.iter().map(|s| (s.id, s)).collect();
    assert_eq!(loaded.tweetbase.len(), state.tweetbase.len());
    for (x, y) in loaded.tweetbase.iter().zip(state.tweetbase.iter()) {
        assert_eq!(
            x.sentence, y.sentence,
            "casing profile after a save and load"
        );
        assert_eq!(y.sentence, Cased::of(input[&y.sentence.id]));
    }
    checkpoint::save(&resaved, 47, &loaded).unwrap();
    assert!(
        std::fs::read(&saved).unwrap() == std::fs::read(&resaved).unwrap(),
        "re-saving the loaded state must write the same checkpoint text"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    drop(loaded);

    let before = serde_json::to_string(&state).unwrap();
    let clf = accept_all(dim);
    let g = Globalizer::new(
        &chunker,
        None,
        &clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(BIG),
            ..Default::default()
        },
    );
    g.process_batch(&mut trial, trial_batch);
    assert!(trial.n_evicted() > state.n_evicted(), "the trial evicts");
    if let Err(e) = trial.tweetbase.check_postings() {
        panic!("posting index after the trial batch: {e}");
    }
    drop(trial);
    assert!(
        serde_json::to_string(&state).unwrap() == before,
        "a discarded trial batch must leave the original's checkpoint text unchanged"
    );
    assert_indexes_hold(&state, &state, "after a discarded trial batch");
}
