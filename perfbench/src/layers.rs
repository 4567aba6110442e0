//! Per-layer probes for the traced run. Every span here wraps a call
//! into one module's public API from outside the program; nothing is
//! instrumented inside it.

use crate::report::Outcome;
use crate::stats::median;
use emd_core::globalizer::GlobalizerState;
use emd_core::mention::extract_mentions_into;
use emd_core::{EntityClassifier, LocalEmd, PhaseTimings, PhraseEmbedder};
use emd_resilience::checkpoint;
use emd_text::casing::syntactic_class;
use emd_text::token::{Sentence, Span};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Upper bound on the items one probe times, so probes stay a small
/// share of the traced run at window scale.
const PROBE_CAP: usize = 20_000;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn us_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// `local.*`: `LocalEmd::process` alone over the workload's sentences.
pub fn local(out: &mut Outcome, local: &dyn LocalEmd, sentences: &[Sentence]) {
    let sample = &sentences[..sentences.len().min(PROBE_CAP)];
    let mut spans = 0usize;
    let t0 = Instant::now();
    for s in sample {
        spans += black_box(local.process(s)).spans.len();
    }
    out.metric("local.process_us", "us", us_per(t0, sample.len()));
    out.metric(
        "local.spans_per_sentence",
        "spans/sentence",
        spans as f64 / sample.len().max(1) as f64,
    );
}

/// `globalizer.*`: median duration of the timed public calls.
pub fn globalizer(out: &mut Outcome, batch_ms: &[f64], finalize_ms: &[f64]) {
    out.metric("globalizer.process_batch_ms", "ms", median(batch_ms));
    out.metric("globalizer.finalize_ms", "ms", median(finalize_ms));
}

/// Field-wise `after - before` of two cumulative phase clocks.
pub fn phase_delta(before: &PhaseTimings, after: &PhaseTimings) -> PhaseTimings {
    PhaseTimings {
        local_infer_ns: after.local_infer_ns - before.local_infer_ns,
        ingest_ns: after.ingest_ns - before.ingest_ns,
        scan_ns: after.scan_ns - before.scan_ns,
        pool_ns: after.pool_ns - before.pool_ns,
        classify_ns: after.classify_ns - before.classify_ns,
        promotion_ns: after.promotion_ns - before.promotion_ns,
        emit_ns: after.emit_ns - before.emit_ns,
        finalize_ns: after.finalize_ns - before.finalize_ns,
        evict_ns: after.evict_ns - before.evict_ns,
    }
}

/// `phase.*`: per-episode phase clocks (`GlobalizerState::timings`
/// deltas), median over episodes. `evict` overlaps `scan` and `pool`
/// through the settle rescan, so the rows do not add up to wall time.
pub fn phases(out: &mut Outcome, episodes: &[PhaseTimings]) {
    let row = |f: fn(&PhaseTimings) -> u64| -> f64 {
        let v: Vec<f64> = episodes.iter().map(|p| f(p) as f64 / 1e6).collect();
        median(&v)
    };
    out.metric("phase.local_infer_ms", "ms", row(|p| p.local_infer_ns));
    out.metric("phase.ingest_ms", "ms", row(|p| p.ingest_ns));
    out.metric("phase.scan_ms", "ms", row(|p| p.scan_ns));
    out.metric("phase.pool_ms", "ms", row(|p| p.pool_ns));
    out.metric("phase.classify_ms", "ms", row(|p| p.classify_ns));
    out.metric("phase.promotion_ms", "ms", row(|p| p.promotion_ns));
    out.metric("phase.evict_ms", "ms", row(|p| p.evict_ns));
    out.metric("phase.finalize_ms", "ms", row(|p| p.finalize_ns));
}

/// Accumulates `extract_mentions_into` timings batch by batch against
/// the live `CTrie`.
#[derive(Default)]
pub struct MentionProbe {
    sentences: usize,
    secs: f64,
    buf: Vec<Span>,
}

impl MentionProbe {
    /// Re-extract the mentions of `batch` (just ingested into `state`).
    pub fn batch(&mut self, state: &GlobalizerState, batch: &[Sentence], max_len: usize) {
        let syms: Vec<_> = batch
            .iter()
            .filter_map(|s| state.tweetbase.get(s.id))
            .map(|r| &r.tok_syms)
            .collect();
        let t0 = Instant::now();
        for s in &syms {
            extract_mentions_into(&state.ctrie, s, max_len, &mut self.buf);
            black_box(&self.buf);
        }
        self.secs += t0.elapsed().as_secs_f64();
        self.sentences += syms.len();
    }

    pub fn report(&self, out: &mut Outcome) {
        out.metric(
            "mention.extract_us",
            "us",
            self.secs * 1e6 / self.sentences.max(1) as f64,
        );
    }
}

/// Median of `reps` timings of `f`, in milliseconds.
fn timed_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0)
        })
        .collect();
    median(&v)
}

/// State-size layers on a steady-state `state`: trie and candidate
/// counts, window bookkeeping, compaction, the resident-bytes walk, and
/// the whole-state clone the supervisor takes before every batch.
pub fn state(out: &mut Outcome, state: &GlobalizerState, evicted: u64) {
    out.metric("ctrie.nodes", "count", state.ctrie.n_nodes() as f64);
    out.metric("candidates.live", "count", state.candidates.len() as f64);
    out.metric("window.evicted", "count", evicted as f64);
    out.metric(
        "tweetbase.slots_per_live",
        "ratio",
        state.tweetbase.n_slots() as f64 / state.tweetbase.len().max(1) as f64,
    );
    out.metric(
        "state.resident_mb",
        "MB",
        state.resident_bytes() as f64 / 1e6,
    );
    out.metric(
        "state.resident_bytes_ms",
        "ms",
        timed_ms(5, || {
            black_box(state.resident_bytes());
        }),
    );
    out.metric(
        "supervisor.state_clone_ms",
        "ms",
        timed_ms(3, || drop(black_box(state.clone()))),
    );
    let mut scratch = state.clone();
    let t0 = Instant::now();
    black_box(scratch.compact());
    out.metric("state.compact_ms", "ms", ms(t0));
}

/// `phrase.embed_us` and `classifier.predict_us` over the state's
/// mentions and candidates. A deep system's local candidate embedding is
/// `PhraseEmbedder::embed_span_view`; a non-deep one's is the syntactic
/// class one-hot, which is what the probe times in that case.
pub fn embed_and_classify(
    out: &mut Outcome,
    state: &GlobalizerState,
    phrase: Option<&PhraseEmbedder>,
    classifier: &EntityClassifier,
) {
    let mentions: Vec<(usize, Span)> = state
        .tweetbase
        .iter_indexed()
        .flat_map(|(i, r)| r.global_mentions.iter().map(move |&s| (i, s)))
        .take(PROBE_CAP)
        .collect();
    let t0 = Instant::now();
    for &(i, span) in &mentions {
        match (phrase, state.tweetbase.embedding_view(i)) {
            (Some(pe), Some(view)) => {
                black_box(pe.embed_span_view(view, &span));
            }
            _ => {
                let rec = state.tweetbase.get_by_index(i);
                black_box(syntactic_class(&rec.sentence, &span).one_hot());
            }
        }
    }
    out.metric("phrase.embed_us", "us", us_per(t0, mentions.len()));

    let features: Vec<Vec<f32>> = state
        .candidates
        .iter()
        .take(PROBE_CAP)
        .map(|c| EntityClassifier::features(&c.global_embedding(), c.token_len()))
        .collect();
    let t0 = Instant::now();
    for f in &features {
        black_box(classifier.predict(f));
    }
    out.metric("classifier.predict_us", "us", us_per(t0, features.len()));
}

/// `checkpoint.*`: save and restore of one checkpoint, through the
/// generation ladder the supervisor uses, plus a save of the
/// steady-state window. `restart` is the small state a restart restores
/// (its load is quadratic in the file size today, so it must stay
/// small); `window` is the full steady-state window.
pub fn checkpoint(
    out: &mut Outcome,
    dir: &Path,
    restart: &GlobalizerState,
    window: &GlobalizerState,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("probe.ckpt");
    let t0 = Instant::now();
    checkpoint::save_generations(&path, 1, restart, 2).map_err(|e| e.to_string())?;
    out.metric("checkpoint.save_ms", "ms", ms(t0));
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    out.metric("checkpoint.mb", "MB", bytes as f64 / 1e6);
    let t0 = Instant::now();
    let (restored, _) = checkpoint::load_chain::<GlobalizerState>(&path, 2);
    out.metric("checkpoint.load_ms", "ms", ms(t0));
    let restored = restored.ok_or("probe checkpoint did not restore")?;
    out.gate(
        "checkpoint round trip",
        restored.1.tweetbase.len() == restart.tweetbase.len()
            && restored.1.candidates.len() == restart.candidates.len(),
        format!(
            "{} sentences, {} candidates restored",
            restored.1.tweetbase.len(),
            restored.1.candidates.len()
        ),
    );

    let wpath = dir.join("window.ckpt");
    let t0 = Instant::now();
    checkpoint::save_generations(&wpath, 1, window, 1).map_err(|e| e.to_string())?;
    out.metric("checkpoint.window_save_ms", "ms", ms(t0));
    let wbytes = std::fs::metadata(&wpath).map_err(|e| e.to_string())?.len();
    out.metric("checkpoint.window_mb", "MB", wbytes as f64 / 1e6);
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}
