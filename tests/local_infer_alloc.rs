//! Allocation regression test for deep Local EMD inference.
//!
//! `BiLstm::infer` projects every step's input with one kernel call and
//! runs the recurrence in three reused buffers, so its allocations must not
//! grow with the sequence length. `Aguilar::process` encodes a sentence's
//! characters into one flat buffer and convolves borrowed rows of the char
//! embedding table, so a token's length must not change how often it
//! allocates either. Both are pinned with a counting global allocator.

use emd_globalizer::core::local::LocalEmd;
use emd_globalizer::local::Aguilar;
use emd_globalizer::nn::lstm::BiLstm;
use emd_globalizer::nn::Matrix;
use emd_globalizer::synth::datasets::training_stream;
use emd_globalizer::text::token::{Sentence, SentenceId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts the allocation calls of threads
/// that opted in, each into its own counter, so tests running on other
/// threads never disturb a count.
struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread counts: `n` calls so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_alloc() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local, which does not allocate.
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

/// Allocation calls (fresh blocks and reallocations) `f` makes on this
/// thread.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNT.with(|c| c.take()).unwrap_or(0))
}

fn input(t: usize, d: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(t, d, (0..t * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

#[test]
fn bilstm_infer_allocations_do_not_grow_with_length() {
    let mut rng = StdRng::seed_from_u64(3);
    // Aguilar's shape: 62-dim token features, 50 hidden units a direction.
    let net = BiLstm::new(62, 50, &mut rng);
    let (short, long) = (input(5, 62, &mut rng), input(50, 62, &mut rng));
    let (y5, n5) = count_allocs(|| net.infer(&short));
    let (y50, n50) = count_allocs(|| net.infer(&long));
    assert_eq!((y5.rows, y50.rows), (5, 50));
    assert_eq!(
        n5, n50,
        "BiLstm::infer: {n5} allocations at T=5, {n50} at T=50"
    );
}

#[test]
fn token_length_does_not_change_feature_allocations() {
    let (world, corpus) = training_stream(31, 0.002);
    let model = Aguilar::init(&corpus, world.gazetteer.clone(), 7);
    let sentence =
        |text: &str| Sentence::from_tokens(SentenceId::new(0, 0), ["the", text, "today"]);
    let short = sentence("abc");
    let long = sentence("abcdefghijklmnopqrstuvwxyzabcd");
    model.process(&short); // warm up lazily registered instrumentation
    let (out3, n3) = count_allocs(|| model.process(&short));
    let (out30, n30) = count_allocs(|| model.process(&long));
    assert_eq!(out3.token_embeddings.unwrap().rows, 3);
    assert_eq!(out30.token_embeddings.unwrap().rows, 3);
    assert_eq!(
        n3, n30,
        "Aguilar::process: {n3} allocations with a 3-character token, {n30} with a 30-character one"
    );
}
