//! Allocation regression test for the supervisor's per-batch snapshot.
//!
//! `StreamSupervisor` clones the whole `GlobalizerState` before every
//! batch so a batch-level fault can roll back. The sentence records, the
//! candidate records and the interned token strings are shared between
//! the state and its clone (`Arc`, copied on write), so a clone allocates
//! per *structure* — the slot and record vectors, the index tables, one
//! posting list per symbol — and not per stored token. This test pins
//! that with a counting global allocator: cloning a full 1k-sentence
//! window of 12-token sentences must make fewer allocations than a
//! quarter of the window's tokens. A deep copy makes one or more per
//! token (each token's text is its own `String`).

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::nn::param::Net;
use emd_globalizer::text::token::{Sentence, SentenceId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts allocation calls made by threads
/// that opted in, so other test threads never disturb the count.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only an
// atomic and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const VOCAB: usize = 600;
const TOKENS: usize = 12;
const WINDOW: usize = 1_000;

/// `n` sentences of `TOKENS` tokens drawn from a `VOCAB`-word vocabulary
/// by a fixed LCG, every third token capitalised.
fn stream(n: usize) -> Vec<Sentence> {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|i| {
            let toks = (0..TOKENS).map(|j| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let mut t = format!("w{}", (x >> 33) as usize % VOCAB);
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
