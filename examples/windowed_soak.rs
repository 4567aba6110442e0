//! Bounded-memory soak: stream a long-horizon drifting topic stream
//! (50k messages by default) through a windowed pipeline and verify that
//! resident state stays bounded — the window evicts, cold candidates are
//! pruned, evicted slots are compacted, and the resident-bytes gauge
//! plateaus instead of growing with stream length.
//!
//! Exits non-zero (assertion failure) if any bound is violated, so CI can
//! use it as a soak smoke test.
//!
//! Run with: `cargo run --release --example windowed_soak`
//! (`EMD_SOAK_N=10000` shrinks the stream for quick runs.)

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{EntityClassifier, Globalizer, GlobalizerConfig};
use emd_globalizer::synth::{gen_drift_stream, NoiseConfig, World, WorldConfig};
use std::time::Instant;

const WINDOW: usize = 2_000;
const EPOCH: usize = 2_000;
const BATCH: usize = 200;

fn main() {
    let n: usize = std::env::var("EMD_SOAK_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    let seed = 2022u64;

    println!("[setup] generating a {n}-message drifting stream ...");
    let world = World::generate(&WorldConfig {
        per_category: 60,
        ..Default::default()
    });
    // Noise off keeps the surface vocabulary finite, so any unbounded
    // growth the assert catches is real state leakage, not typo soup.
    let dataset = gen_drift_stream(&world, n, EPOCH, "soak-drift", &NoiseConfig::none(), seed);
    let sentences: Vec<_> = dataset
        .sentences
        .iter()
        .map(|a| a.sentence.clone())
        .collect();

    // A lexicon local system over every surface variant: cheap enough to
    // soak 50k messages in seconds, and it floods the candidate pool —
    // the worst case for bounded-memory bookkeeping.
    let local = LexiconEmd::new(
        world
            .entities
            .iter()
            .flat_map(|e| e.variants.iter().cloned()),
    );
    let clf = EntityClassifier::new(7, seed);

    emd_globalizer::obs::set_enabled(true);

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

    println!("[stream] window={WINDOW}, batches of {BATCH}:\n");
    let t0 = Instant::now();
    let mut resident = Vec::new();
    for (i, batch) in sentences.chunks(BATCH).enumerate() {
        g.process_batch(&mut state, batch);
        assert!(
            state.tweetbase.len() <= WINDOW,
            "live sentences exceeded the window: {}",
            state.tweetbase.len()
        );
        let snap = g.metrics().snapshot();
        let bytes = snap.gauge("emd_window_resident_bytes").unwrap_or(0.0);
        resident.push(bytes);
        if (i + 1) % 50 == 0 {
            println!(
                "batch {:>3}: live={:<5} slots={:<5} candidates={:<5} evicted={:<6} \
                 pruned={:<5} compactions={:<3} resident={:>6.1} KiB",
                i + 1,
                state.tweetbase.len(),
                state.tweetbase.n_slots(),
                state.candidates.len(),
                snap.counter("emd_window_evicted_records_total")
                    .unwrap_or(0),
                snap.counter("emd_window_pruned_candidates_total")
                    .unwrap_or(0),
                snap.counter("emd_window_compactions_total").unwrap_or(0),
                bytes / 1024.0,
            );
        }
    }
    let out = g.finalize(&mut state);
    let secs = t0.elapsed().as_secs_f64();

    let snap = g.metrics().snapshot();
    let evicted = snap
        .counter("emd_window_evicted_records_total")
        .unwrap_or(0);
    let pruned = snap
        .counter("emd_window_pruned_candidates_total")
        .unwrap_or(0);
    let compactions = snap.counter("emd_window_compactions_total").unwrap_or(0);
    println!(
        "\n[done] {n} messages in {secs:.1}s ({:.0} msg/s): \
         evicted={evicted} pruned={pruned} compactions={compactions} \
         entities={} candidates={}",
        n as f64 / secs.max(1e-9),
        out.n_entities,
        out.n_candidates,
    );

    // --- the soak bounds ---------------------------------------------
    assert_eq!(
        evicted,
        n.saturating_sub(WINDOW) as u64,
        "every sentence beyond the window must be evicted"
    );
    assert!(
        compactions > 0,
        "sustained eviction must trigger compaction"
    );
    assert!(
        state.tweetbase.n_slots() <= 2 * state.tweetbase.len() + 2,
        "evicted slots must stay amortised: slots={} live={}",
        state.tweetbase.n_slots(),
        state.tweetbase.len()
    );
    // Plateau: once the window has filled and the stream has rotated
    // through a few domains, resident bytes must stop growing — the peak
    // over the second half of the run may not exceed the mid-run peak by
    // more than 15%.
    let mid = resident.len() / 2;
    let early_peak = resident[resident.len() / 5..mid]
        .iter()
        .fold(0.0f64, |a, &b| a.max(b));
    let late_peak = resident[mid..].iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "[plateau] mid-run peak = {:.1} KiB, late peak = {:.1} KiB",
        early_peak / 1024.0,
        late_peak / 1024.0
    );
    assert!(early_peak > 0.0, "resident-bytes gauge must be recorded");
    assert!(
        late_peak <= early_peak * 1.15,
        "resident bytes kept growing: mid-run peak {early_peak:.0} -> late peak {late_peak:.0}"
    );
    println!("[ok] bounded-memory soak passed");
}
