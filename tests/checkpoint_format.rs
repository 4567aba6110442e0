//! Checkpoint format compatibility. Every fixture is the supervisor's
//! ladder after the first 24 sentences of a windowed lexicon stream
//! below (window 6, batch 4, a checkpoint every 2 batches): the lexicon
//! stream, with no adjacent mentions, or the adjacent stream, whose
//! `Moross Lumsa` and `Straße Italy` fragments fill the adjacency ledger.
//!
//! * `tests/fixtures/windowed_adjacent_v6.ckpt` is in the current format,
//!   v6, where candidates are named by ids. The build must restore it,
//!   re-encode the restored state to the same bytes, and continue the
//!   run from it with output bit-identical to an uninterrupted run.
//! * `tests/fixtures/windowed_lexicon_v5.ckpt` and
//!   `tests/fixtures/windowed_adjacent_v5.ckpt` were written in format
//!   v5, which named candidates by their text. The build must convert
//!   the names to the ids an uninterrupted run holds, the non-empty
//!   ledger included, and continue from them bit-identically.
//! * `tests/fixtures/windowed_lexicon_v4.ckpt` was written in format v4,
//!   whose `frozen_adjacency` counted only evicted records' pairs. The
//!   build must migrate it to the adjacency ledger, and continue from it
//!   bit-identically.
//! * `tests/fixtures/windowed_lexicon_v3.ckpt` was written by an earlier
//!   build's encoder in format v3, whose candidates listed their
//!   mentions. The build must migrate it to counters equal to the
//!   uninterrupted run's, and continue from it bit-identically too.

use emd_globalizer::core::config::WindowConfig;
use emd_globalizer::core::globalizer::GlobalizerState;
use emd_globalizer::core::local::LexiconEmd;
use emd_globalizer::core::{
    EntityClassifier, Globalizer, GlobalizerConfig, StreamSupervisor, SupervisorConfig,
};
use emd_globalizer::nn::param::Net;
use emd_globalizer::resilience::checkpoint::{self, FORMAT_VERSION, MAGIC};
use emd_globalizer::text::token::{Sentence, SentenceId};
use std::path::Path;

const FIXTURE_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v3.ckpt"
);
const FIXTURE_V4: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v4.ckpt"
);
const FIXTURE_V5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_lexicon_v5.ckpt"
);
const ADJACENT_V5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v5.ckpt"
);
const ADJACENT_V6: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/windowed_adjacent_v6.ckpt"
);

fn stream(n: u64) -> Vec<Sentence> {
    (0..n)
        .map(|i| {
            let words: &[&str] = if i % 3 == 0 {
                &["Italy", "reports", "cases"]
            } else if i % 3 == 1 {
                &["covid", "in", "italy"]
            } else {
                &["nothing", "here"]
            };
            Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied())
        })
        .collect()
}

/// Adjacent fragments the local system finds only apart.
fn adjacent_stream(n: u64) -> Vec<Sentence> {
    (0..n)
        .map(|i| {
            let words: &[&str] = match i % 3 {
                0 => &["Moross", "Lumsa", "quarantined"],
                1 => &["cases", "at", "Moross", "Lumsa"],
                _ => &["Straße", "Italy", "reports"],
            };
            Sentence::from_tokens(SentenceId::new(i, 0), words.iter().copied())
        })
        .collect()
}

fn lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "covid"])
}

fn adjacent_lexicon() -> LexiconEmd {
    LexiconEmd::new(["italy", "moross", "lumsa", "straße"])
}

fn accept_all() -> EntityClassifier {
    let mut clf = EntityClassifier::new(7, 0);
    clf.params_mut().into_iter().last().unwrap().value.data[0] = 100.0;
    clf
}

fn globalizer<'a>(local: &'a LexiconEmd, clf: &'a EntityClassifier) -> Globalizer<'a> {
    Globalizer::new(
        local,
        None,
        clf,
        GlobalizerConfig {
            window: WindowConfig::sliding(6),
            ..Default::default()
        },
    )
}

/// A scratch directory for one test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("emd_golden_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every counter and pooled embedding of every candidate, and the pooled
/// spans of every live record, agree.
fn assert_same_pools(a: &GlobalizerState, b: &GlobalizerState) {
    assert_eq!(a.candidates.len(), b.candidates.len());
    for ((ix, x), (iy, y)) in a.candidates.entries().zip(b.candidates.entries()) {
        let key = a.candidate_key(ix);
        assert_eq!(key, b.candidate_key(iy), "discovery order");
        assert_eq!(x.frequency(), y.frequency(), "frequency of {}", key);
        assert_eq!(
            x.locally_detected_frequency(),
            y.locally_detected_frequency(),
            "local frequency of {}",
            key
        );
        assert_eq!(x.n_pooled(), y.n_pooled(), "pooled count of {}", key);
        assert_eq!(x.global_embedding(), y.global_embedding());
        assert_eq!(x.label, y.label);
    }
    assert_eq!(a.tweetbase.len(), b.tweetbase.len());
    for (x, y) in a.tweetbase.iter().zip(b.tweetbase.iter()) {
        assert_eq!(x.sentence.id, y.sentence.id);
        assert_eq!(x.global_mentions, y.global_mentions);
        assert_eq!(x.retired, y.retired);
    }
    assert_eq!(a.adjacency(), b.adjacency());
}

/// Save `state` under `dir` and return the header line and payload.
fn resave(dir: &Path, seq: u64, state: &GlobalizerState) -> (String, String) {
    let path = dir.join("state.ckpt");
    checkpoint::save(&path, seq, state).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, payload) = text.split_once('\n').unwrap();
    (header.to_string(), payload.to_string())
}

/// Re-encode a migrated `state`: the file is current-format and
/// restores to the same state.
fn assert_resaves_current(dir: &Path, seq: u64, state: &GlobalizerState) {
    let (header, _) = resave(dir, seq, state);
    assert!(
        header.starts_with(&format!("{MAGIC} v{FORMAT_VERSION} seq={seq} ")),
        "{header}"
    );
    let (_, back): (u64, GlobalizerState) = checkpoint::load(&dir.join("state.ckpt")).unwrap();
    assert_same_pools(&back, state);
}

/// Assert two payloads hold the same bytes. HashMap-backed fields
/// iterate in a per-process order, so the payloads are compared as byte
/// multisets: any change to a number, escape, key or bracket shows.
fn assert_same_bytes(a: &str, b: &str) {
    let sorted = |s: &str| {
        let mut b = s.as_bytes().to_vec();
        b.sort_unstable();
        b
    };
    assert_eq!(a.len(), b.len());
    assert_eq!(sorted(a), sorted(b));
}

/// The uninterrupted run's state after the 6 batches a fixture covers.
fn uninterrupted(local: &LexiconEmd, stream: fn(u64) -> Vec<Sentence>) -> GlobalizerState {
    let clf = accept_all();
    let g = globalizer(local, &clf);
    let mut state = g.new_state();
    for chunk in stream(24).chunks(4) {
        g.process_batch(&mut state, chunk);
    }
    state
}

/// The adjacency ledger's pairs, by candidate text.
fn pairs(state: &GlobalizerState) -> Vec<(String, String, u64)> {
    let key = |id| state.candidate_key(id);
    let ledger = state.adjacency().at_least(1);
    ledger
        .into_iter()
        .map(|(a, b, n)| (key(a), key(b), n))
        .collect()
}

/// Resume the 40-sentence run from a copy of `fixture`: the supervisor
/// skips the 6 covered batches and must match the uninterrupted run.
fn continue_from(fixture: &str, dir: &Path, local: &LexiconEmd, stream: fn(u64) -> Vec<Sentence>) {
    let clf = accept_all();
    let g = globalizer(local, &clf);
    let path = dir.join("resume.ckpt");
    std::fs::copy(fixture, &path).unwrap();
    let s = stream(40);
    let sup = StreamSupervisor::new(
        &g,
        SupervisorConfig {
            checkpoint_path: Some(path),
            checkpoint_every: 2,
            batch_size: 4,
            ..Default::default()
        },
    );
    let report = sup.run(&s);
    assert!(report.resumed_from_checkpoint);
    assert_eq!(report.batches_skipped, 6);
    assert_eq!(report.batches_processed, 4);
    let (plain, _) = g.run(&s, 4);
    assert_eq!(report.output.per_sentence, plain.per_sentence);
    assert_eq!(report.output.n_candidates, plain.n_candidates);
    assert_eq!(report.output.n_entities, plain.n_entities);
}

#[test]
fn golden_v3_checkpoint_restores_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V3).unwrap();
    let (header, _) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v3 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V3)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());

    // The migrated counters (mention lists plus evicted counts) equal the
    // ones the uninterrupted run holds after the same 6 batches.
    assert_same_pools(&state, &uninterrupted(&lexicon(), stream));
    assert!(
        state
            .candidates
            .get(state.candidate_id("italy").unwrap())
            .unwrap()
            .frequency()
            > state.tweetbase.len()
    );

    let dir = scratch("v3");
    continue_from(FIXTURE_V3, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v4_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V4).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v4 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V4)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());
    let (_, v3): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V3)).unwrap();
    assert_same_pools(&state, &v3);

    // Migration turns the (empty) frozen ledger into the (empty) ledger;
    // the re-encoded state is current-format and restores unchanged.
    assert!(payload.contains(r#""frozen_adjacency":[]"#));
    assert!(state.adjacency().at_least(1).is_empty());
    let dir = scratch("v4");
    assert_resaves_current(&dir, seq, &state);

    continue_from(FIXTURE_V4, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v5_checkpoint_restores_resaves_and_continues_bit_identically() {
    let bytes = std::fs::read_to_string(FIXTURE_V5).unwrap();
    let (header, _) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v5 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V5)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    assert_eq!(state.tweetbase.n_slots(), state.tweetbase.len());
    let (_, v4): (u64, GlobalizerState) = checkpoint::load(Path::new(FIXTURE_V4)).unwrap();
    assert_same_pools(&state, &v4);
    assert_same_pools(&state, &uninterrupted(&lexicon(), stream));

    let dir = scratch("v5");
    assert_resaves_current(&dir, seq, &state);
    continue_from(FIXTURE_V5, &dir, &lexicon(), stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v5_ledger_converts_to_the_ids_an_uninterrupted_run_holds() {
    let bytes = std::fs::read_to_string(ADJACENT_V5).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v5 seq=6 ")),
        "{header}"
    );
    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V5)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let want = vec![
        ("moross".to_string(), "lumsa".to_string(), 16),
        ("straße".to_string(), "italy".to_string(), 8),
    ];
    assert_eq!(pairs(&state), want);
    assert_same_pools(&state, &uninterrupted(&adjacent_lexicon(), adjacent_stream));

    // A v4 tree froze only the evicted records' pairs: the six live
    // records hold 4 `moross lumsa` and 2 `straße italy` of them.
    let v4 = payload.replace(
        r#""adjacency":[["moross","lumsa",16],["straße","italy",8]]"#,
        r#""frozen_adjacency":[{"first":"moross","second":"lumsa","count":12},{"first":"straße","second":"italy","count":6}]"#,
    );
    assert_ne!(v4, payload);
    let from_v4: GlobalizerState = serde_json::from_str(&v4).unwrap();
    assert_same_pools(&from_v4, &state);

    let dir = scratch("adjacent_v5");
    assert_resaves_current(&dir, seq, &state);
    continue_from(ADJACENT_V5, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_v6_checkpoint_restores_resaves_and_continues_bit_identically() {
    assert_eq!(FORMAT_VERSION, 6);
    let bytes = std::fs::read_to_string(ADJACENT_V6).unwrap();
    let (header, payload) = bytes.split_once('\n').unwrap();
    assert!(
        header.starts_with(&format!("{MAGIC} v6 seq=6 ")),
        "{header}"
    );

    let (seq, state): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V6)).unwrap();
    assert_eq!(seq, 6);
    assert!(state.n_evicted() > 0, "the window evicted before the save");
    let (_, v5): (u64, GlobalizerState) = checkpoint::load(Path::new(ADJACENT_V5)).unwrap();
    assert_same_pools(&state, &v5);

    // Saving the restored state writes the same bytes.
    let dir = scratch("v6");
    let (header2, payload2) = resave(&dir, seq, &state);
    assert_same_bytes(&payload2, payload);
    assert!(
        header2.starts_with(&format!("{MAGIC} v6 seq=6 ")),
        "{header2}"
    );

    continue_from(ADJACENT_V6, &dir, &adjacent_lexicon(), adjacent_stream);
    std::fs::remove_dir_all(&dir).unwrap();
}
